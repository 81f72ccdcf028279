"""The incidence engine: cells, tables, manifests, the oracle check."""

import itertools
import json

import pytest

from pkernels import affine, criterion, weyl
from pkernels.affine import Element, length
from pkernels.criterion import (Bounds, ConventionManifest, adlv_nonempty,
                                calibrate, default_manifest, incidence_table,
                                lifts_to, load_manifest, __version__)
from pkernels.errors import ConventionError, ResourceLimitError
from pkernels.polygons import HodgeDatum, eo_representative, parse_polygon
from pkernels.shtuka import bt1_of, eo_classify, minimal_shtuka, shtuka_from_element

HD21 = HodgeDatum(2, 1)
ORD = parse_polygon('0,1')
SS = parse_polygon('1/2x2')


def _strata(max_h):
    return [HodgeDatum(h, d) for h in range(1, max_h + 1) for d in range(h + 1)]


def test_ground_truth_cells():
    # elliptic curves: supersingular iff the p-kernel is the local-local one
    assert lifts_to(HD21, (1, 2), SS) is True
    assert lifts_to(HD21, (2, 1), ORD) is True
    assert lifts_to(HD21, (1, 2), ORD) is False
    assert lifts_to(HD21, (2, 1), SS) is False


@pytest.mark.parametrize('h', [2, 3, 4, 5, 6])
def test_extreme_dimension_tables_are_permutations(cfg, h):
    # a p-divisible group of dimension 1 (or codimension 1) is determined
    # by its formal height, so each column meets exactly one class: the
    # class of that polygon's minimal module
    for d in (1, h - 1):
        t = incidence_table(HodgeDatum(h, d))
        assert len(t.rows) == len(t.cols) == h
        assert all(sum(row) == 1 for row in t.values)
        assert all(sum(col) == 1 for col in zip(*t.values))
        for j, col in enumerate(t.cols):
            w = eo_classify(bt1_of(minimal_shtuka(parse_polygon(col), cfg)), d)
            assert t.values[t.rows.index(w)][j] is True, (h, d, col)


def test_cell_witness_is_checkable():
    # a witness is a minimal-length element of P's Newton point: no cyclic
    # shift s·y·s is shorter, and its own Newton point is P
    for hd in _strata(5):
        t = incidence_table(hd)
        for key, wit in t.witnesses.items():
            y = Element(tuple(wit['y']['lam']), tuple(wit['y']['perm']))
            P = parse_polygon(key.split('|')[1])
            assert affine.newton_point(y) == P.slopes(), key
            refs = [affine.simple_reflection(y.h, i) for i in range(y.h)] if y.h > 1 else []
            assert all(length(s * y * s) >= length(y) for s in refs), key
    val, info = lifts_to(HD21, (1, 2), SS, return_info=True)
    assert val is True
    assert info['witness'] == {'y': {'lam': [0, 1], 'perm': [2, 1]}}


def test_empty_cells_report_explored_elements():
    for hd in _strata(5):
        t = incidence_table(hd)
        assert len(t.searched) + len(t.witnesses) == len(t.rows) * len(t.cols)
        for key, n in t.searched.items():
            w, ps = key.split('|')
            val, info = lifts_to(hd, tuple(json.loads(w)), parse_polygon(ps),
                                 return_info=True)
            assert val is False and info['witness'] is None
            assert n == info['searched'] >= 1, key
    # x_(1,2) is omega, alone in its class: one element decides the row
    val, info = lifts_to(HD21, (1, 2), ORD, return_info=True)
    assert (val, info['searched']) == (False, 1)


def _left_minimal(x):
    return all(length(affine.simple_reflection(x.h, i) * x) > length(x) for i in range(1, x.h))


@pytest.mark.parametrize('h', [2, 3, 4, 5, 6])
def test_engine_agrees_on_coset_minimal_representatives(cfg, h):
    # Viehmann's theorem speaks of the elements of W·eps^mu·W that are
    # minimal in their coset W·x.  They match the rows one to one under
    # the oracle's classification, and each reduces to the same Newton
    # strata as its row's representative x_w
    for d in range(1, h):
        hd = HodgeDatum(h, d)
        rows = incidence_table(hd).rows
        minimal = [x for lam in sorted(set(itertools.permutations(hd.mu())))
                   for u in weyl.all_permutations(h)
                   for x in [Element(lam, u)] if _left_minimal(x)]
        by_row = {eo_classify(bt1_of(shtuka_from_element(x, cfg)), d): x for x in minimal}
        assert len(minimal) == len(rows) and set(by_row) == set(rows)
        for w, x in by_row.items():
            assert (set(affine.newton_strata(x)[0])
                    == set(affine.newton_strata(eo_representative(hd, w))[0])), (d, w)


def test_row_representatives_are_not_coset_minimal():
    # x_w is a monomial of its class, not the coset-minimal element:
    # for the ordinary class, s_1·eps^(1,0) = omega is shorter
    x = eo_representative(HD21, (2, 1))
    assert x == affine.translation((1, 0))
    assert affine.simple_reflection(2, 1) * x == affine.omega(2)
    assert not _left_minimal(x)


def test_incidence_table_shape_and_cells(manifest):
    t = incidence_table(HD21, manifest)
    assert t.rows == ((1, 2), (2, 1))
    assert t.cols == ('0,1', '1/2x2')
    assert t.values == ((False, True), (True, False))
    assert t.cell((1, 2), SS) is True
    assert t.cell((1, 2), '0,1') is False


def test_five_two_cell_count():
    t = incidence_table(HodgeDatum(5, 2))
    assert sum(map(sum, t.values)) == 11


def test_incidence_table_serialization(manifest):
    t = incidence_table(HD21, manifest)
    blob = json.loads(t.to_json())
    assert blob['hodge'] == [2, 1]
    assert blob['version'] == __version__
    assert blob['manifest'] == manifest.to_dict(with_report=False)
    assert blob['manifest']['calibrated'] is True
    assert blob['values'] == [[False, True], [True, False]]
    assert set(blob['witnesses']) == {'[1, 2]|1/2x2', '[2, 1]|0,1'}
    assert set(blob['searched']) == {'[1, 2]|0,1', '[2, 1]|1/2x2'}
    csv_text = t.to_csv()
    lines = csv_text.strip().split('\n')
    assert lines[0].startswith('# pkernels ')
    assert lines[1].startswith('# manifest: ')
    assert lines[2].split(',')[0] == 'w\\P'
    assert lines[3].endswith('0,1')   # [1,2] row: ordinary no, half-slope yes
    assert lines[4].endswith('1,0')   # [2,1] row: ordinary yes, half-slope no
    m2 = ConventionManifest.from_dict(json.loads(lines[1][len('# manifest: '):]))
    assert m2 == ConventionManifest(calibrated=True, probes=manifest.probes)


def test_table_determinism(manifest):
    a = incidence_table(HodgeDatum(3, 1), manifest)
    b = incidence_table(HodgeDatum(3, 1), manifest)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize('h,d', [(3, 1), (3, 2)])
def test_small_tables_cover_rows_and_columns(manifest, h, d):
    t = incidence_table(HodgeDatum(h, d), manifest)
    for i, w in enumerate(t.rows):
        assert any(t.values[i]), ('row', w)
    for j, col in enumerate(t.cols):
        assert any(row[j] for row in t.values), ('col', col)


def test_lifts_to_validates_stratum():
    with pytest.raises(ValueError):
        lifts_to(HD21, (1, 2), parse_polygon('1/3x3'))   # wrong height
    with pytest.raises(ValueError):
        # (1,3,2) is not minimal in its coset for the (3,1) type
        lifts_to(HodgeDatum(3, 1), (1, 3, 2), parse_polygon('0x2,1'))


def test_adlv_nonempty_requires_minuscule():
    with pytest.raises(ValueError):
        adlv_nonempty(Element((2, 0), (1, 2)), SS)
    # I·diag(t, 1)·I has a unit entry on the diagonal: ordinary only
    assert adlv_nonempty(Element((1, 0), (1, 2)), SS) is False
    assert adlv_nonempty(Element((1, 0), (1, 2)), ORD) is True
    # I·s_1·diag(t, 1)·I meets both strata
    assert adlv_nonempty(Element((1, 0), (2, 1)), SS) is True
    assert adlv_nonempty(Element((1, 0), (2, 1)), ORD) is True


def test_bounds_height_guard():
    with pytest.raises(ResourceLimitError):
        incidence_table(HodgeDatum(7, 3), bounds=Bounds(max_height=6))
    with pytest.raises(ResourceLimitError):
        lifts_to(HodgeDatum(7, 3), (1, 2, 3, 4, 5, 6, 7), parse_polygon('3/7x7'))


def test_bounds_support_guard():
    # the (5, 2) row (3, 4, 1, 5, 2) explores 30 elements, the most of its table
    hd, w, P = HodgeDatum(5, 2), (3, 4, 1, 5, 2), parse_polygon('2/5x5')
    assert lifts_to(hd, w, P, bounds=Bounds(max_support=30), return_info=True)[1]['searched'] == 30
    with pytest.raises(ResourceLimitError):
        lifts_to(hd, w, P, bounds=Bounds(max_support=29))
    with pytest.raises(ResourceLimitError):
        incidence_table(hd, bounds=Bounds(max_support=29))


def test_manifest_roundtrip(tmp_path, manifest):
    for m in (default_manifest(), manifest):
        p = tmp_path / 'manifest.json'
        m.save(p)
        assert ConventionManifest.load(p) == m
        assert ConventionManifest.from_dict(m.to_dict()) == m
    assert set(default_manifest().to_dict()) == {'calibrated', 'library_version', 'probes'}


def test_load_manifest_default_warns(capsys):
    m = load_manifest(None)
    err = capsys.readouterr().err
    assert 'calibrat' in err
    assert m.calibrated is False


def test_calibrate_selection_and_report(manifest):
    # session manifest comes from a real calibration run on (2, 1)
    assert manifest.calibrated is True
    assert manifest.probes == ((2, 1),)
    rep = manifest.report
    assert rep['samples'] == {'[2, 1]': 60}
    assert [c[3] for c in rep['ground_truth']] == [True, True, False, False]
    sig = rep['sigma']
    assert sig['np'] == '1/2x2'
    assert sig['trials'] == 2 * 20          # two middle elements of 1/2x2
    assert sum(sig['classes'].values()) == sig['trials']
    for text in sig['classes']:
        x = Element(**{k: tuple(v) for k, v in json.loads(text).items()})
        assert adlv_nonempty(x, SS) is True


def test_calibrate_observes_only_true_cells(manifest):
    # every (class, polygon) pair the sampler produced must be a nonempty
    # cell; calibrate enforced that, so re-check one stratum here
    obs = manifest.report['observed']['[2, 1]']
    t = incidence_table(HD21, manifest)
    for key, count in obs.items():
        wtxt, ptxt = key.split('|')
        assert count > 0
        assert t.cell(tuple(json.loads(wtxt)), ptxt) is True


def test_calibrate_multi_probe():
    m = calibrate(probes=((2, 1), (3, 1)), samples={(2, 1): 20, (3, 1): 12},
                  sigma_trials=4)
    assert m.calibrated is True
    assert set(m.report['observed']) == {'[2, 1]', '[3, 1]'}
    assert m.probes == ((2, 1), (3, 1))
    assert m.report['sigma']['trials'] == 8


def test_calibrate_raises_on_disagreement(monkeypatch):
    # an engine that loses the supersingular stratum contradicts the oracle
    real = affine.newton_strata

    def lossy(x, memo=None, limit=None):
        points, explored = real(x, memo, limit)
        return {p: y for p, y in points.items() if p != SS.slopes()}, explored

    monkeypatch.setattr(criterion.affine, 'newton_strata', lossy)
    with pytest.raises(ConventionError, match='disagrees'):
        calibrate(probes=((2, 1),), samples={(2, 1): 20}, sigma_trials=4)


def test_calibrate_determinism():
    a = calibrate(probes=((2, 1),), samples={(2, 1): 30}, sigma_trials=8)
    b = calibrate(probes=((2, 1),), samples={(2, 1): 30}, sigma_trials=8)
    assert a == b
    assert a.to_dict(with_report=True) == b.to_dict(with_report=True)
