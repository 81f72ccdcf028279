"""Command line interface, driven in process through main(argv)."""

import json
from collections import Counter

import pytest

from pkernels.affine import Element
from pkernels.cli import main, parse_element
from pkernels.criterion import calibrate, incidence_table
from pkernels.polygons import HodgeDatum


def format_element(x: Element) -> str:
    # the spelling parse_element reads
    return 'perm=%s;lam=(%s)' % (json.dumps(list(x.perm)), ','.join(str(v) for v in x.lam))


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
    for text in ('lam=(0,1);perm=[2,1];lam=(1,0)', 'perm=[2,1];perm=[1,2];lam=(0,1)'):
        with pytest.raises(ValueError, match='given twice'):
            parse_element(text)
    for text in ('perm=[True,2];lam=(0,1)', 'perm=[2,1];lam=(False,True)', 'perm=[2,1];lam=True'):
        with pytest.raises(ValueError, match='must be a list of integers'):
            parse_element(text)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(['--version'])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith('pkernels ')


def test_check_cell(capsys):
    code, out, err = run(capsys, 'check', '--height', '2', '--dim', '1',
                         '--eo', '[1,2]', '--np', '1/2x2')
    assert code == 0 and err == ''
    blob = json.loads(out)
    assert blob['value'] is True
    assert blob['hodge'] == [2, 1]
    assert blob['np'] == '1/2x2'
    assert blob['witness']['y'] == {'perm': [2, 1], 'lam': [0, 1]}
    assert blob['provenance'] == incidence_table(HodgeDatum(2, 1)).provenance


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
    ('check', '--height', '2', '--dim', '1', '--eo', '[2,1]', '--np', '1/0x2'),
    ('check', '--height', '2', '--dim', '1', '--eo', '[1,2]', '--np', '1/2x2,0x0'),
    ('calibrate', '--probe', '2,1', '--count', '0', '--sigma-trials', '0'),
    ('calibrate', '--probe', '2,1', '--count', '-3', '--sigma-trials', '1'),
    ('check', '--height', '2', '--dim', '1', '--eo', '[2,1]', '--np', '0,1',
     '--out', '/nonexistent/dir/c.json'),
    ('oracle', 'verify', '--height', '2', '--dim', '1', '--count', '0'),
    ('oracle', 'sample', '--height', '2', '--dim', '1', '--count', '-2'),
    ('check', '--height', '2', '--dim', '1', '--eo', '[True,2]', '--np', '1/2x2'),
    ('adlv', '--x', 'perm=[True,2];lam=(False,True)', '--np', '1/2x2'),
], ids=['probe-one-number', 'eo-unclosed', 'eo-scalar', 'x-unclosed',
        'np-zero-denominator', 'np-zero-count', 'calibrate-no-samples', 'calibrate-negative-count',
        'out-unwritable', 'oracle-verify-no-samples', 'oracle-sample-negative-count',
        'eo-boolean', 'x-boolean'])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert 'error:' in err


@pytest.mark.parametrize('argv, message', [
    (('enumerate-cochars', '--block', '1,2,3'), '--block must be "n,m", got \'1,2,3\''),
    (('enumerate-cochars', '--block', 'a,b'), '--block must be "n,m", got \'a,b\''),
    (('calibrate', '--probe', '2,1,3'), '--probe must be "h,d", got \'2,1,3\''),
], ids=['block-three-numbers', 'block-not-numbers', 'probe-three-numbers'])
def test_malformed_pair_names_its_option(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ''
    assert err == 'error: %s\n' % message


def test_check_writes_file(tmp_path, capsys):
    dest = tmp_path / 'cell.json'
    code, out, err = run(capsys, 'check', '--height', '2', '--dim', '1',
                         '--eo', '[1,2]', '--np', '0,1', '--out', str(dest))
    assert code == 0 and out == ''
    blob = json.loads(dest.read_text())
    assert blob['value'] is False and blob['searched'] == 1


def test_incidence_csv_matches_library(capsys):
    code, out, err = run(capsys, 'incidence', '--height', '2', '--dim', '1')
    assert code == 0 and err == ''
    assert out == incidence_table(HodgeDatum(2, 1)).to_csv()


def test_incidence_json_format(capsys):
    code, out, err = run(capsys, 'incidence', '--height', '2', '--dim', '1',
                         '--format', 'json')
    assert code == 0
    blob = json.loads(out)
    assert blob['values'] == [[False, True], [True, False]]


def test_incidence_height_limit_exits_3(capsys):
    code, out, err = run(capsys, 'incidence', '--height', '13', '--dim', '6')
    assert code == 3
    assert 'resource limit' in err


@pytest.mark.parametrize('cmd', ['sample', 'verify'])
def test_oracle_height_limit_exits_3(capsys, cmd):
    # checked before any sampling: no output at all
    code, out, err = run(capsys, 'oracle', cmd, '--height', '13', '--dim', '6',
                         '--count', '1')
    assert code == 3 and out == ''
    assert 'resource limit' in err


def test_calibrate_height_limit_exits_3_before_any_field(capsys, monkeypatch):
    # the probe heights are checked before the field table is built
    import pkernels.shtuka

    def no_field(*args):
        raise AssertionError('field built before the height check')
    monkeypatch.setattr(pkernels.shtuka, 'field', no_field)
    code, out, err = run(capsys, 'calibrate', '--probe', '13,6', '--ext', '8')
    assert code == 3 and out == ''
    assert 'resource limit' in err


@pytest.mark.parametrize('argv', [
    ('enumerate-cochars', '--block', '12,13'),
    ('enumerate-cochars', '--np', '1/2x14'),
    ('enumerate-polygons', '--height', '60', '--dim', '30'),
    ('oracle', 'sample', '--height', '2', '--dim', '1', '--ext', '16'),
    ('oracle', 'verify', '--height', '2', '--dim', '1', '--prime', '257', '--ext', '1'),
    ('calibrate', '--probe', '2,1', '--ext', '9'),
], ids=['block-height', 'polygon-height', 'polygons-height', 'field-2^16',
        'field-257', 'calibrate-field-2^9'])
def test_resource_limit_exits_3(capsys, argv):
    # checked before anything is enumerated, sampled or tabulated
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ''
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
    blob = json.loads(out)
    assert blob['value'] is False
    assert blob['provenance'] == incidence_table(HodgeDatum(2, 1)).provenance


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


@pytest.mark.parametrize('field_args', [('--ext', '8'), ('--prime', '3', '--ext', '5')],
                         ids=['GF(256)', 'GF(243)'])
def test_oracle_sample_at_the_field_bound(capsys, field_args):
    # the largest fields of characteristic 2 and 3: their tables and the
    # packed series folds of r = 8 and r = 5 run end to end
    code, out, err = run(capsys, 'oracle', 'sample', '--height', '3', '--dim', '1',
                         '--count', '2', *field_args)
    assert code == 0
    lines = out.strip().split('\n')
    assert len(lines) == 2
    for line in lines:
        assert set(json.loads(line)) == {'eo', 'np'}


def test_oracle_sample_prints_the_draws_calibrate_observes(capsys):
    # one seeded stream of cells: draw k of the stratum (h, d) comes from
    # the seed [S, h, d, k] in both, so --seed S prints what calibrate(seed=S)
    # counted on (3, 1), whatever its other probes
    code, out, _ = run(capsys, 'oracle', 'sample', '--height', '3', '--dim', '1',
                       '--count', '300', '--seed', '11')
    assert code == 0
    printed = Counter(json.dumps(rec['eo']) + '|' + rec['np']
                      for rec in map(json.loads, out.splitlines()))
    report = calibrate(probes=((3, 1),), samples=300, seed=11, sigma_trials=1)
    assert printed == report['observed']['[3, 1]']
    assert len(printed) > 1


def test_oracle_verify(capsys):
    code, out, err = run(capsys, 'oracle', 'verify', '--height', '2', '--dim', '1',
                         '--count', '6', '--seed', '3')
    assert code == 0
    blob = json.loads(out)
    assert blob['ok'] is True
    assert all(blob['checks'].values()) or blob['checks']


def test_calibrate_writes_report(tmp_path, capsys):
    dest = tmp_path / 'cal.json'
    code, out, err = run(capsys, 'calibrate', '--probe', '2,1', '--count', '20',
                         '--sigma-trials', '4', '--out', str(dest))
    assert code == 0
    summary = json.loads(out)
    assert set(summary) == {'written', 'seed', 'observed_cells', 'sigma_classes'}
    assert summary['written'] == str(dest)
    assert summary['seed'] == 20240801
    assert summary['observed_cells'] >= 1
    assert summary['sigma_classes'] >= 1
    report = json.loads(dest.read_text())
    assert report == calibrate(probes=((2, 1),), samples=20, sigma_trials=4)
    # the written report is a check the library records
    assert incidence_table(HodgeDatum(2, 1), report).provenance['seed'] == 20240801


@pytest.mark.parametrize('argv', [
    ('incidence', '--height', '3', '--dim', '1'),
    ('incidence', '--height', '3', '--dim', '1', '--format', 'json'),
    ('adlv', '--x', 'perm=[1,2];lam=(1,0)', '--np', '0,1'),
    ('enumerate-cochars', '--block', '2,3'),
    ('enumerate-polygons', '--height', '4', '--dim', '2'),
    ('oracle', 'verify', '--height', '2', '--dim', '1', '--count', '4', '--seed', '3'),
], ids=['incidence-csv', 'incidence-json', 'adlv', 'enumerate-cochars',
        'enumerate-polygons', 'oracle-verify'])
def test_out_writes_what_stdout_shows(tmp_path, capsys, argv):
    # the shared --out: the file holds the bytes printed without it
    code, shown, err = run(capsys, *argv)
    assert code == 0 and shown
    dest = tmp_path / 'out.txt'
    code, out, err = run(capsys, *argv, '--out', str(dest))
    assert code == 0 and out == ''
    assert dest.read_text() == shown


def test_integer_lists_read_with_or_without_brackets(capsys):
    # one spelling for every integer list: comma-separated, brackets optional
    spellings = [
        [('check', '--height', '2', '--dim', '1', '--np', '1/2x2', '--eo', eo)
         for eo in ('2,1', '[2,1]')],
        [('calibrate', '--probe', probe, '--count', '2', '--sigma-trials', '1',
          '--out', '/dev/null') for probe in ('[2,1]', '2,1')],
        [('adlv', '--np', '0,1', '--x', x) for x in ('perm=2,1;lam=0,1', 'perm=[2,1];lam=(0,1)')],
        [('enumerate-cochars', '--block', block) for block in ('2,3', '(2,3)')],
    ]
    for argvs in spellings:
        outs = [run(capsys, *argv) for argv in argvs]
        assert outs[0][0] == 0 and outs[0][1]
        assert outs[0] == outs[1]
    assert parse_element('perm=2,1;lam=0,1') == parse_element('perm=[2,1];lam=(0,1)')
    code, out, err = run(capsys, 'calibrate', '--probe', '2.0,1')
    assert code == 2 and out == ''
    assert err == 'error: --probe must be "h,d", got \'2.0,1\'\n'
