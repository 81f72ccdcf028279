"""Command line interface, driven in process through main(argv)."""

import json

import pytest

from pkernels.affine import Element
from pkernels.cli import format_element, main, parse_element
from pkernels.criterion import ConventionManifest, default_manifest, incidence_table
from pkernels.polygons import HodgeDatum


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_parse_element_roundtrip():
    xs = [Element((0, 1), (2, 1)), Element((1, -2, 0), (3, 1, 2)),
          Element((0,) * 4, (1, 2, 3, 4))]
    for x in xs:
        assert parse_element(format_element(x)) == x
    # field order and whitespace are free
    assert parse_element('lam=(0, 1); perm=[2, 1]') == Element((0, 1), (2, 1))
    # a bare integer lam is promoted to a 1-tuple
    assert parse_element('perm=[1];lam=0') == Element((0,), (1,))


def test_parse_element_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element('perm=[2,1]')           # lam missing
    with pytest.raises(ValueError):
        parse_element('perm=[2,1];foo=(0,1)')


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(['--version'])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith('pkernels ')


def test_check_cell(capsys):
    code, out, err = run(capsys, 'check', '--height', '2', '--dim', '1',
                         '--eo', '[1,2]', '--np', '1/2x2')
    assert code == 0
    assert 'uncalibrated' in err   # no manifest given
    blob = json.loads(out)
    assert blob['value'] is True
    assert blob['hodge'] == [2, 1]
    assert blob['np'] == '1/2x2'
    assert blob['witness']['y'] == {'perm': [2, 1], 'lam': [0, 1]}
    assert blob['manifest']['calibrated'] is False


def test_check_bad_polygon_exits_2(capsys):
    code, out, err = run(capsys, 'check', '--height', '2', '--dim', '1',
                         '--eo', '[2,1]', '--np', '2')
    assert code == 2
    assert 'error:' in err


@pytest.mark.parametrize('argv', [
    ('calibrate', '--probe', '2'),
    ('check', '--height', '2', '--dim', '1', '--eo', '[2,1', '--np', '0,1'),
    ('check', '--height', '2', '--dim', '1', '--eo', '5', '--np', '0,1'),
    ('adlv', '--x', 'perm=[2,1;lam=(0,1)', '--np', '1/2x2'),
], ids=['probe-one-number', 'eo-unclosed', 'eo-scalar', 'x-unclosed'])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert 'error:' in err


def test_check_writes_file(tmp_path, capsys):
    dest = tmp_path / 'cell.json'
    code, out, err = run(capsys, 'check', '--height', '2', '--dim', '1',
                         '--eo', '[1,2]', '--np', '0,1', '--out', str(dest))
    assert code == 0 and out == ''
    blob = json.loads(dest.read_text())
    assert blob['value'] is False and blob['searched'] == 1


def test_incidence_csv_matches_library(tmp_path, capsys):
    mpath = tmp_path / 'm.json'
    default_manifest().save(mpath)
    code, out, err = run(capsys, 'incidence', '--height', '2', '--dim', '1',
                         '--manifest', str(mpath))
    assert code == 0
    assert 'uncalibrated' not in err
    assert out == incidence_table(HodgeDatum(2, 1), default_manifest()).to_csv()


def test_incidence_json_format(capsys):
    code, out, err = run(capsys, 'incidence', '--height', '2', '--dim', '1',
                         '--format', 'json')
    assert code == 0
    blob = json.loads(out)
    assert blob['values'] == [[False, True], [True, False]]


def test_incidence_height_limit_exits_3(capsys):
    code, out, err = run(capsys, 'incidence', '--height', '7', '--dim', '3')
    assert code == 3
    assert 'resource limit' in err


def test_adlv(capsys):
    code, out, err = run(capsys, 'adlv', '--x', 'perm=[1,2];lam=(1,0)',
                         '--np', '0,1')
    assert code == 0
    blob = json.loads(out)
    assert blob['value'] is True
    assert blob['x'] == {'perm': [1, 2], 'lam': [1, 0]}
    code, out, err = run(capsys, 'adlv', '--x', 'perm=[1,2];lam=(1,0)',
                         '--np', '1/2x2')
    assert code == 0
    assert json.loads(out)['value'] is False


def test_adlv_rejects_nonminuscule(capsys):
    code, out, err = run(capsys, 'adlv', '--x', 'perm=[1,2];lam=(2,0)',
                         '--np', '1/2x2')
    assert code == 2
    assert 'minuscule' in err


def test_enumerate_polygons(capsys):
    code, out, err = run(capsys, 'enumerate-polygons', '--height', '4', '--dim', '2')
    assert code == 0
    blob = json.loads(out)
    assert blob['polygons'] == ['0x2,1x2', '0,1/2x2,1', '0,2/3x3', '1/2x4',
                                '1/3x3,1']
    assert blob['count'] == 5


def test_enumerate_cochars_block(capsys):
    code, out, err = run(capsys, 'enumerate-cochars', '--block', '1,2')
    assert code == 0
    blob = json.loads(out)
    from pkernels.semimodules import enumerate_cochar_block
    assert blob['cochars'] == [list(l) for l in enumerate_cochar_block(1, 2)]
    assert blob['count'] == len(blob['cochars'])


def test_enumerate_cochars_polygon(capsys):
    code, out, err = run(capsys, 'enumerate-cochars', '--np', '1/2x2')
    assert code == 0
    blob = json.loads(out)
    assert blob['profiles'] == [[0, 0], [0, 1]]


def test_enumerate_cochars_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, 'enumerate-cochars')
    assert code == 2
    code, _, err = run(capsys, 'enumerate-cochars', '--block', '1,1', '--np', '0,1')
    assert code == 2


def test_oracle_sample_jsonl(tmp_path, capsys):
    args = ('oracle', 'sample', '--height', '2', '--dim', '1',
            '--count', '8', '--seed', '5')
    code, out, err = run(capsys, *args)
    assert code == 0
    lines = out.strip().split('\n')
    assert len(lines) == 8
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {'eo', 'np'}
        assert sorted(rec['eo']) == [1, 2]
        assert rec['np'] in ('0,1', '1/2x2')
    # determinism, and --out writes the same bytes
    dest = tmp_path / 's.jsonl'
    code2, out2, _ = run(capsys, *args, '--out', str(dest))
    assert code2 == 0 and out2 == ''
    assert dest.read_text() == out


def test_oracle_verify(capsys):
    code, out, err = run(capsys, 'oracle', 'verify', '--height', '2', '--dim', '1',
                         '--count', '6', '--seed', '3')
    assert code == 0
    blob = json.loads(out)
    assert blob['ok'] is True
    assert all(blob['checks'].values()) or blob['checks']


def test_calibrate_writes_manifest_used_by_incidence(tmp_path, capsys):
    dest = tmp_path / 'cal.json'
    code, out, err = run(capsys, 'calibrate', '--probe', '2,1', '--count', '20',
                         '--sigma-trials', '4', '--out', str(dest))
    assert code == 0
    summary = json.loads(out)
    assert summary['written'] == str(dest)
    assert summary['manifest']['calibrated'] is True
    assert summary['observed_cells'] >= 1
    assert summary['sigma_classes'] >= 1
    m = ConventionManifest.load(dest)
    assert m.calibrated is True
    code2, out2, err2 = run(capsys, 'incidence', '--height', '2', '--dim', '1',
                            '--manifest', str(dest))
    assert code2 == 0
    assert 'uncalibrated' not in err2
    assert '# manifest: ' in out2
