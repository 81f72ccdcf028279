"""The incidence engine: cells, tables, provenance, the oracle check."""

import itertools
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from pkernels import affine, criterion, weyl
from pkernels.affine import Element, length
from pkernels.criterion import (ENGINE, Bounds, adlv_nonempty, calibrate,
                                incidence_table, lifts_to, __version__)
from pkernels.errors import ConventionError, ResourceLimitError
from pkernels.polygons import HodgeDatum, eo_representative, parse_polygon
from pkernels.shtuka import bt1_of, core, eo_classify, minimal_shtuka, shtuka_from_element

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
    # shift s·y·s is shorter, and its own Newton point is P; the witness's
    # dict, lists and all, builds an element that the engine takes back
    for hd in _strata(5):
        t = incidence_table(hd)
        for key, wit in t.witnesses.items():
            y = Element(**wit['y'])
            assert y == Element(tuple(wit['y']['lam']), tuple(wit['y']['perm']))
            assert hash(y) == hash(Element(y.lam, y.perm)) and y.to_dict() == wit['y']
            P = parse_polygon(key.split('|')[1])
            assert affine.newton_point(y) == P.slopes(), key
            refs = [affine.simple_reflection(y.h, i) for i in range(y.h)] if y.h > 1 else []
            assert all(length(s * y * s) >= length(y) for s in refs), key
    # the boolean answer of every cell with h <= 5 is the table's, and the
    # witness that return_info reports is the table's dict
    for hd in _strata(5):
        t = incidence_table(hd)
        for w, row in zip(t.rows, t.values):
            for col, v in zip(t.cols, row):
                P = parse_polygon(col)
                assert lifts_to(hd, w, P) is v, (hd, w, col)
                val, info = lifts_to(hd, w, P, return_info=True)
                key = '%s|%s' % (json.dumps(list(w)), col)
                assert val is v and info['witness'] == t.witnesses.get(key), key
    wit = incidence_table(HodgeDatum(4, 2)).witnesses['[1, 2, 3, 4]|1/2x4']
    assert adlv_nonempty(Element(**wit['y']), parse_polygon('1/2x4')) is True
    val, info = lifts_to(HD21, (1, 2), SS, return_info=True)
    assert val is True
    assert info['witness'] == {'y': {'lam': [0, 1], 'perm': [2, 1]}}


def test_witnesses_are_certificates():
    # every nonempty cell with h <= 8, on core, split and dual rows alike:
    # the witness y has the cell's Newton point and the minimal length of
    # its conjugacy class, each read off y alone
    cells = 0
    for hd in _strata(8):
        for key, wit in incidence_table(hd).witnesses.items():
            y = Element(**wit['y'])
            assert affine.newton_point(y) == parse_polygon(key.split('|')[1]).slopes(), key
            assert length(y) == affine.min_length(y), key
            cells += 1
    assert cells == 675


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


def test_incidence_table_shape_and_cells(report):
    t = incidence_table(HD21, report)
    assert t.rows == ((1, 2), (2, 1))
    assert t.cols == ('0,1', '1/2x2')
    assert t.values == ((False, True), (True, False))
    assert t.cell((1, 2), SS) is True
    assert t.cell((1, 2), '0,1') is False


def test_cell_accepts_every_spelling_of_a_column(report):
    t = incidence_table(HD21, report)
    for spelling in ('1/2x2', '1/2 x2', '2/4x2', '1/2,1/2', SS):
        assert t.cell((1, 2), spelling) is True, spelling
        assert t.cell([2, 1], spelling) is False, spelling
    with pytest.raises(ValueError, match=r'no row \[3, 1\]'):
        t.cell((3, 1), SS)
    with pytest.raises(ValueError, match='no column 1/3x3'):
        t.cell((1, 2), '1/3x3')
    with pytest.raises(ValueError, match='bad slope token'):
        t.cell((1, 2), 'half')


def test_cell_takes_rows_of_integers_only(report):
    # as lifts_to does: an integer-valued float is no index of a row
    t = incidence_table(HD21, report)
    assert t.cell(np.array([2, 1]), ORD) is True
    for row in ((2.0, 1), (2, 1.0)):
        with pytest.raises(TypeError):
            lifts_to(HD21, row, ORD)
        with pytest.raises(TypeError):
            t.cell(row, ORD)


def test_five_two_cell_count():
    t = incidence_table(HodgeDatum(5, 2))
    assert sum(map(sum, t.values)) == 11


def test_incidence_table_serialization(report):
    t = incidence_table(HD21, report)
    blob = json.loads(t.to_json())
    assert set(blob) == {'provenance', 'hodge', 'rows', 'cols', 'values',
                         'witnesses', 'searched'}
    assert blob['hodge'] == [2, 1]
    assert blob['provenance'] == t.provenance
    assert blob['values'] == [[False, True], [True, False]]
    assert set(blob['witnesses']) == {'[1, 2]|1/2x2', '[2, 1]|0,1'}
    assert set(blob['searched']) == {'[1, 2]|0,1', '[2, 1]|1/2x2'}
    csv_text = t.to_csv()
    lines = csv_text.strip().split('\n')
    assert lines[0].startswith('# provenance: ')
    assert json.loads(lines[0][len('# provenance: '):]) == t.provenance
    assert lines[1].split(',')[0] == 'w\\P'
    assert lines[2].endswith('0,1')   # [1,2] row: ordinary no, half-slope yes
    assert lines[3].endswith('1,0')   # [2,1] row: ordinary yes, half-slope no


def test_provenance_records_the_check_seed(report):
    checked, plain = incidence_table(HD21, report), incidence_table(HD21)
    assert checked.provenance == {'version': __version__, 'engine': ENGINE,
                                  'seed': report['seed']}
    assert plain.provenance == {'version': __version__, 'engine': ENGINE, 'seed': None}
    _, info = lifts_to(HD21, (1, 2), SS, report, return_info=True)
    assert info['provenance'] == checked.provenance
    _, info = adlv_nonempty(Element((1, 0), (2, 1)), SS, return_info=True)
    assert info['provenance'] == plain.provenance


def test_package_version_matches_pyproject():
    # every table's provenance records __version__, so it must be the
    # version the package is built and installed as
    tomllib = pytest.importorskip('tomllib')        # Python >= 3.11
    with open(Path(__file__).resolve().parents[1] / 'pyproject.toml', 'rb') as fh:
        assert tomllib.load(fh)['project']['version'] == __version__


def test_numpy_is_no_runtime_dependency():
    # no module of the package imports numpy at import time, so only the
    # test extra names it
    tomllib = pytest.importorskip('tomllib')        # Python >= 3.11
    with open(Path(__file__).resolve().parents[1] / 'pyproject.toml', 'rb') as fh:
        project = tomllib.load(fh)['project']
    assert not any(dep.startswith('numpy') for dep in project['dependencies'])
    assert any(dep.startswith('numpy') for dep in project['optional-dependencies']['test'])


def test_check_never_changes_an_answer(report):
    for hd in _strata(5):
        a, b = incidence_table(hd, report), incidence_table(hd)
        assert (a.values, a.witnesses, a.searched) == (b.values, b.witnesses, b.searched), hd


def test_table_determinism(report):
    a = incidence_table(HodgeDatum(3, 1), report)
    b = incidence_table(HodgeDatum(3, 1), report)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize('h,d', [(3, 1), (3, 2)])
def test_small_tables_cover_rows_and_columns(report, h, d):
    t = incidence_table(HodgeDatum(h, d), report)
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
        lifts_to(HodgeDatum(13, 5), tuple(range(1, 14)), parse_polygon('5/13x13'))


def test_bounds_support_guard():
    # the (5, 2) row (1, 3, 4, 2, 5) explores 5 elements, the most of its table
    hd, w, P = HodgeDatum(5, 2), (1, 3, 4, 2, 5), parse_polygon('2/5x5')
    assert lifts_to(hd, w, P, bounds=Bounds(max_support=5), return_info=True)[1]['searched'] == 5
    with pytest.raises(ResourceLimitError):
        lifts_to(hd, w, P, bounds=Bounds(max_support=4))
    with pytest.raises(ResourceLimitError):
        incidence_table(hd, bounds=Bounds(max_support=4))


def _cells(tables):
    """(hodge datum, row, polygon) for every cell of the tables."""
    return [(HodgeDatum(*t.hodge), w, parse_polygon(col)) for t in tables
            for w in t.rows for col in t.cols]


def _cell_answers(cells, ask, cold):
    """ask(*cell) with return_info for every cell, from an empty engine
    memo and row store per cell when ``cold``, else from whatever they
    hold."""
    out = []
    for cell in cells:
        if cold:
            affine._memo.clear()
            criterion._rows.clear()
        val, info = ask(*cell, return_info=True)
        out.append((val, info['witness'], info['searched']))
    return out


def _table_answers(tables):
    """(value, witness, searched) of every cell of the tables, in the
    order of _cells; None where the table records no witness or count."""
    return [(v, t.witnesses.get(key), t.searched.get(key)) for t in tables
            for w, row in zip(t.rows, t.values) for col, v in zip(t.cols, row)
            for key in [criterion._cell_key(w, col)]]


def test_session_memo_never_changes_an_answer(monkeypatch, report):
    # every cell with h <= 5: the same value, witness and searched count
    # from an empty memo and store as after every cell has warmed them,
    # and the table's
    monkeypatch.setattr(affine, '_memo', {})
    monkeypatch.setattr(criterion, '_rows', {})
    tables = [incidence_table(hd) for hd in _strata(5)]
    cells = _cells(tables)
    cold = _cell_answers(cells, lifts_to, cold=True)
    _cell_answers(cells, lifts_to, cold=False)
    assert _cell_answers(cells, lifts_to, cold=False) == cold
    assert [(v, wit, None if v else n) for v, wit, n in cold] == _table_answers(tables)
    # the sigma-classes of the oracle check, against both polygons of (2, 1)
    xs = [Element(**{k: tuple(v) for k, v in json.loads(text).items()})
          for text in report['sigma']['classes']]
    queries = [(x, P) for x in xs for P in (SS, ORD)]
    cold = _cell_answers(queries, adlv_nonempty, cold=True)
    assert _cell_answers(queries, adlv_nonempty, cold=False) == cold
    for (x, P), (val, wit, n) in zip(queries, cold):
        points, explored = affine.newton_strata(x)
        assert val is (P.slopes() in points) and n == explored
        assert wit == (None if not val else {'y': points[P.slopes()].to_dict()})


def test_session_memo_keeps_the_support_guard(monkeypatch):
    # the (5, 2) row (1, 3, 4, 2, 5) explores 5 elements; a row the store
    # or a tree the memo already holds is refused by a smaller max_support
    # all the same
    monkeypatch.setattr(affine, '_memo', {})
    monkeypatch.setattr(criterion, '_rows', {})
    hd, w, P = HodgeDatum(5, 2), (1, 3, 4, 2, 5), parse_polygon('2/5x5')
    x = eo_representative(hd, w)
    small, exact = Bounds(max_support=4), Bounds(max_support=5)
    # warm first, then refused
    assert lifts_to(hd, w, P, bounds=exact, return_info=True)[1]['searched'] == 5
    with pytest.raises(ResourceLimitError):
        lifts_to(hd, w, P, bounds=small)
    with pytest.raises(ResourceLimitError):
        adlv_nonempty(x, P, bounds=small)
    # refused first, then answered, then refused again: the row is not
    # stored, so lifts_to meets the tree in the memo
    affine._memo.clear()
    criterion._rows.clear()
    with pytest.raises(ResourceLimitError):
        adlv_nonempty(x, P, bounds=small)
    assert adlv_nonempty(x, P, return_info=True)[1]['searched'] == 5
    with pytest.raises(ResourceLimitError):
        lifts_to(hd, w, P, bounds=small)
    assert not criterion._rows
    with pytest.raises(ResourceLimitError):
        adlv_nonempty(x, P, bounds=small)


def test_tables_leave_every_cell_in_the_memo(monkeypatch):
    # the tables of every stratum with h <= 5 fill the row store that
    # lifts_to reads with all their 62 rows: no cell query adds an entry
    # to the store or to the engine memo, and each returns the table's
    # witness and searched count
    monkeypatch.setattr(affine, '_memo', {})
    monkeypatch.setattr(criterion, '_rows', {})
    tables = [incidence_table(hd) for hd in _strata(5)]
    rows, size = dict(criterion._rows), len(affine._memo)
    assert len(rows) == sum(len(t.rows) for t in tables) == 62 < criterion._ROWS_MAX
    answers = _cell_answers(_cells(tables), lifts_to, cold=False)
    assert criterion._rows == rows and len(affine._memo) == size
    assert [(v, wit, None if v else n) for v, wit, n in answers] == _table_answers(tables)


def test_session_memo_is_bounded(monkeypatch):
    # with caps of 8 the row store is cleared before any entry that finds
    # it full, so it never holds more than 8 rows, and the engine memo at
    # the start of any reduction that finds it full, so it never holds
    # more than 8 plus the new entries of one tree (at most the elements
    # that tree explored), over table sweeps and cell queries alike
    tables = [incidence_table(hd) for hd in _strata(6)]
    cells = _cells(tables)
    monkeypatch.setattr(affine, '_memo', {})
    monkeypatch.setattr(criterion, '_rows', {})
    want = _cell_answers(cells, lifts_to, cold=True)
    monkeypatch.setattr(affine, '_MEMO_MAX', 8)
    monkeypatch.setattr(criterion, '_ROWS_MAX', 8)
    real_row, stored = criterion._row, []

    def watched_row(h, d, w, limit):
        done = real_row(h, d, w, limit)
        assert 0 < len(criterion._rows) <= 8
        stored.append(len(criterion._rows))
        return done

    monkeypatch.setattr(criterion, '_row', watched_row)
    real, sizes = affine._newton_blocks, []

    def watched(c, limit):
        before = len(affine._memo)
        points, explored = real(c, limit)
        assert len(affine._memo) <= (0 if before >= 8 else before) + explored
        sizes.append((before, len(affine._memo)))
        return points, explored

    monkeypatch.setattr(affine, '_newton_blocks', watched)
    assert [incidence_table(HodgeDatum(*t.hodge)) for t in tables] == tables
    assert _cell_answers(cells, lifts_to, cold=False) == want
    assert max(after for _, after in sizes) > 8
    assert sum(before >= 8 for before, _ in sizes) > 1
    assert max(stored) == 8 and sum(b < a for a, b in zip(stored, stored[1:])) > 1


def test_calibrate_selection_and_report(report):
    # the session report comes from a real calibration run on (2, 1)
    assert report['probes'] == [[2, 1]]
    assert report['samples'] == {'[2, 1]': 60}
    assert [c[3] for c in report['ground_truth']] == [True, True, False, False]
    sig = report['sigma']
    assert sig['np'] == '1/2x2'
    assert sig['trials'] == 2 * 20          # two middle elements of 1/2x2
    assert sum(sig['classes'].values()) == sig['trials']
    for text in sig['classes']:
        x = Element(**{k: tuple(v) for k, v in json.loads(text).items()})
        assert adlv_nonempty(x, SS) is True


def test_calibrate_observes_only_true_cells(report):
    # every (class, polygon) pair the sampler produced must be a nonempty
    # cell; calibrate enforced that, so re-check one stratum here
    obs = report['observed']['[2, 1]']
    t = incidence_table(HD21, report)
    for key, count in obs.items():
        wtxt, ptxt = key.split('|')
        assert count > 0
        assert t.cell(tuple(json.loads(wtxt)), ptxt) is True


def test_calibrate_multi_probe():
    m = calibrate(probes=((2, 1), (3, 1)), samples={(2, 1): 20, (3, 1): 12},
                  sigma_trials=4)
    assert set(m['observed']) == {'[2, 1]', '[3, 1]'}
    assert m['probes'] == [[2, 1], [3, 1]]
    assert m['sigma']['trials'] == 8


@pytest.mark.parametrize('probes, error', [
    (((13, 6),), ResourceLimitError),
    ([(2, 1), (3, 5)], ValueError),
    ([(2, 1), (True, 1)], TypeError),
], ids=['height-bound', 'dimension-above-height', 'boolean-height'])
def test_calibrate_checks_height_before_sampling(monkeypatch, probes, error):
    # every probe is a checked stratum before the first one is sampled
    def no_sampling(*args):
        raise AssertionError('sampled before checking every probe')

    monkeypatch.setattr(criterion, '_oracle_draws', no_sampling)
    with pytest.raises(error):
        calibrate(probes=probes)


TWO_PROBES = ((2, 1), (3, 1))


@pytest.mark.parametrize('probes, samples, sigma_trials', [
    (TWO_PROBES, 0, 0), (TWO_PROBES, 0, 4), (TWO_PROBES, {(2, 1): 20, (3, 1): 0}, 4),
    (TWO_PROBES, 20, 0), (TWO_PROBES, -3, 1), ((), None, 4),
], ids=['0-0', '0-4', 'samples2-4', '20-0', '-3-1', 'no-probes'])
def test_calibrate_rejects_empty_checks(monkeypatch, probes, samples, sigma_trials):
    # a check with no oracle evidence is refused before any sampling
    def no_sampling(*args):
        raise AssertionError('sampled for an empty check')

    monkeypatch.setattr(criterion, '_oracle_draws', no_sampling)
    with pytest.raises(ValueError, match='at least one'):
        calibrate(probes=probes, samples=samples, sigma_trials=sigma_trials)


def test_calibrate_names_a_probe_without_samples(monkeypatch):
    def no_sampling(*args):
        raise AssertionError('sampled before checking the sample counts')

    monkeypatch.setattr(criterion, '_oracle_draws', no_sampling)
    with pytest.raises(ValueError, match=r'no sample count for probe \(3, 1\)'):
        calibrate(probes=((2, 1), (3, 1)), samples={(2, 1): 5})


def test_calibrate_raises_on_disagreement(monkeypatch):
    # an engine that loses the supersingular stratum contradicts the ground
    # truth, the observed cells and the sigma-conjugates; from an empty row
    # store and memo, so that no row warmed by the real engine answers
    real = affine._newton_blocks

    def lossy(c, limit):
        points, explored = real(c, limit)
        return {p: y for p, y in points.items() if p != SS.blocks}, explored

    monkeypatch.setattr(criterion, '_rows', {})
    monkeypatch.setattr(affine, '_memo', {})
    monkeypatch.setattr(criterion.affine, '_newton_blocks', lossy)
    with pytest.raises(ConventionError, match='disagrees') as err:
        calibrate(probes=((2, 1),), samples={(2, 1): 20}, sigma_trials=4)
    for why in ('ground truth', 'observed x', 'sigma-conjugate x'):
        assert why in str(err.value), why


def test_calibrate_determinism():
    a = calibrate(probes=((2, 1),), samples={(2, 1): 30}, sigma_trials=8)
    b = calibrate(probes=((2, 1),), samples={(2, 1): 30}, sigma_trials=8)
    assert a == b


# ------------------------------------------------ draws split over CPUs

def _cpus(monkeypatch, n):
    # the CPUs core._keyed_map may split over, whatever the host has
    monkeypatch.setattr(os, 'sched_getaffinity', lambda pid: set(range(n)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope='module')
def serial_report():
    # the default report of one process, spelled with its dict order
    with pytest.MonkeyPatch.context() as mp:
        _cpus(mp, 1)
        return json.dumps(calibrate())


def test_keyed_map_runs_each_share_in_its_own_process(monkeypatch):
    _cpus(monkeypatch, 3)
    got = core._keyed_map(lambda k: (k, os.getpid()), 3 * core.MIN_SHARE + 1)
    _no_child_left()
    assert [k for k, _ in got] == list(range(3 * core.MIN_SHARE + 1))
    pids = [{pid for k, pid in got if k % 3 == i} for i in range(3)]
    assert pids[0] == {os.getpid()} and len(set.union(*pids)) == 3
    # too few draws for a second share, or a second thread: one process
    assert {pid for _, pid in core._keyed_map(lambda k: (k, os.getpid()),
                                               2 * core.MIN_SHARE - 1)} == {os.getpid()}
    done = threading.Event()
    waiter = threading.Thread(target=done.wait)
    waiter.start()
    try:
        assert {pid for _, pid in core._keyed_map(lambda k: (k, os.getpid()),
                                                   3 * core.MIN_SHARE)} == {os.getpid()}
    finally:
        done.set()
        waiter.join(10)
    assert not waiter.is_alive()


@pytest.mark.parametrize('cpus', [None, 3], ids=['host', 'three'])
def test_calibrate_report_is_the_same_for_every_cpu_count(monkeypatch, serial_report, cpus):
    # draw k of each keyed stream is the same in every process, and the
    # shares go back in k order: the serial report, dict order included
    if cpus:
        _cpus(monkeypatch, cpus)
    assert json.dumps(calibrate()) == serial_report
    _no_child_left()


@pytest.mark.parametrize('good', [0, 1], ids=['every-fork-fails', 'second-fork-fails'])
def test_calibrate_runs_a_share_whose_fork_fails(monkeypatch, serial_report, good):
    # the first `good` forks succeed and the rest raise: the parent runs
    # those shares itself
    _cpus(monkeypatch, 3)
    forks, fork = [], os.fork

    def flaky_fork():
        forks.append(None)
        if len(forks) > good:
            raise OSError(11, 'Resource temporarily unavailable')
        return fork()

    monkeypatch.setattr(os, 'fork', flaky_fork)
    assert json.dumps(calibrate()) == serial_report
    assert len(forks) == 2
    _no_child_left()


@pytest.mark.parametrize('k', [300, 301], ids=['parent-share', 'child-share'])
def test_a_failing_draw_raises_in_the_caller(monkeypatch, k):
    # 402 draws over two CPUs: the parent draws the even k, a child the odd
    # ones; a child that fails leaves its share to the parent, which raises
    _cpus(monkeypatch, 2)
    real = core._cell_draw

    def failing(hd, cfg, seed, j):
        if j == k:
            raise ConventionError('draw %d of (%d, %d) fails' % (j, hd.height, hd.dimension))
        return real(hd, cfg, seed, j)

    monkeypatch.setattr(core, '_cell_draw', failing)
    with pytest.raises(ConventionError, match=r'^draw %d of \(2, 1\) fails$' % k):
        calibrate(probes=((2, 1),), samples=400, sigma_trials=1)
    _no_child_left()
