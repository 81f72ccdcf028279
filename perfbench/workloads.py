"""The four benchmark workloads and their output checks.

Each workload makes its inputs from a seed, sets up what its user pays
for before the first answer, runs a timed closed loop (one caller, one
process, each call issued after the previous one returned), and checks
every output afterwards.  The checkers are plain functions of the
outputs, so the self-test can feed them corrupted results.

Checks never compare against a stored table: the package's tables are
expected to shrink when a sharper engine lands, so each check states a
property any correct table must have, or compares two public entry
points of the package with each other.
"""

import hashlib
import itertools
import json
import resource
from dataclasses import dataclass

import numpy as np

from pkernels import affine, cosets, criterion, polygons, weyl
from pkernels.polygons import HodgeDatum
from pkernels.shtuka import bt1, core, gf, polymat, reduction

# calibration the tiny self-test sizes use in place of the default one
TINY_CALIBRATION = {'probes': ((2, 1),), 'samples': {(2, 1): 60}, 'sigma_trials': 20}

# orbits: elements drawn per (height, length) class, 50 in all; a fixed mix
# keeps the total orbit size (152 cosets) the same for every seed
ORBIT_MIX = {(2, 0): 5, (2, 1): 9, (2, 2): 5, (2, 3): 2,
             (3, 0): 5, (3, 1): 12, (3, 2): 8, (3, 3): 4}
ORBIT_MIX_TINY = {(2, 1): 1, (3, 1): 1}


def plan(workload: str, seconds: float, tiny: bool = False) -> dict:
    """Work sizes for one run.  ``seconds`` scales the amount of work; at 10
    the timed phase takes 9-12 s on a 2-core machine with the numpy kernels
    (about 15 s for ``tables``, whose sweep cannot be cut).  The work done
    never depends on how fast it runs."""
    k = seconds / 10.0
    if workload == 'tables':
        if tiny:
            return {'height': 3, 'sweeps': 1, 'calibration': TINY_CALIBRATION}
        return {'height': 6, 'sweeps': max(1, round(k / 2)), 'calibration': {}}
    if workload == 'cell_queries':
        if tiny:
            return {'heights': (2, 3), 'shuffles': 1, 'calibration': TINY_CALIBRATION}
        return {'heights': (2, 3, 4, 5), 'shuffles': max(1, round(4 * k)), 'calibration': {}}
    if workload == 'oracle':
        if tiny:
            return {'strata': ((3, 1),), 'per_stratum': 4}
        return {'strata': ((3, 1), (3, 2), (4, 2), (5, 2)),
                'per_stratum': max(1, round(300 * k))}
    if workload == 'orbits':
        if tiny:
            return {'mix': ORBIT_MIX_TINY, 'copies': 1, 'round_trips': 1}
        return {'mix': ORBIT_MIX, 'copies': max(1, round(k)), 'round_trips': 4}
    raise ValueError('unknown workload %r' % (workload,))


@dataclass
class Outcome:
    items: int          # cells, queries, samples or cosets completed
    latency_ops: int    # the first this many timed calls are the ones the percentiles describe
    failed: list        # per call: raised or failed its check
    digest: str         # hash of every output, compared between runs
    caches: dict        # module-cache sizes after the timed phase
    peak_rss_mb: float  # peak resident memory up to the end of the timed phase


def module_caches() -> dict:
    return {'affine._length_cache': len(affine._length_cache),
            'cosets._left_tables': len(cosets._left_tables),
            'cosets._right_tables': len(cosets._right_tables)}


def clear_module_caches():
    affine._length_cache.clear()
    cosets.clear_caches()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def cold_start():
    """Empty every cache that a fresh process starts without."""
    clear_module_caches()
    f = gf.field
    while not hasattr(f, 'cache_clear'):    # under the tracer's wrapper
        f = f.__wrapped__
    f.cache_clear()
    bt1._reference_signatures.cache_clear()


def stratum_cells(hd: HodgeDatum) -> list:
    """(row, polygon) for every cell of the stratum's table."""
    _, pairs = polygons.mu_and_type(hd)
    rows = weyl.min_coset_reps(hd.height, pairs)
    return [(w, P) for P in polygons.enumerate_polygons(hd) for w in rows]


# ------------------------------------------------------------------ tables

def check_tables(tables, minimal_rows) -> list:
    """Per table: False when it passes.  Every row and every column has a
    nonempty cell, and the class of each column's minimal module
    (``minimal_rows[(hodge, column)]``) is a nonempty cell of that column."""
    bad = []
    for t in tables:
        if t is None:
            bad.append(True)
            continue
        rows_ok = all(any(r) for r in t.values)
        cols_ok = all(any(col) for col in zip(*t.values))
        try:
            minimal_ok = all(t.cell(minimal_rows[(t.hodge, col)], col) for col in t.cols)
        except ValueError:      # a class that is not a row of the table
            minimal_ok = False
        bad.append(not (rows_ok and cols_ok and minimal_ok))
    return bad


def minimal_rows_of(tables) -> dict:
    """Class of the minimal module of every column polygon, by the oracle."""
    cfg = gf.field(2, 2)
    out = {}
    for t in tables:
        if t is None:
            continue
        for col in t.cols:
            sh = core.minimal_shtuka(polygons.parse_polygon(col), cfg)
            out[(t.hodge, col)] = bt1.eo_classify(core.bt1_of(sh), t.hodge[1])
    return out


def run_tables(seed, p, clock, checked=True) -> Outcome:
    # the tables of a height are fixed: the seed picks nothing here
    strata = [HodgeDatum(p['height'], d) for d in range(p['height'] + 1)]
    manifest = clock.set_up(p['reps'], lambda: criterion.calibrate(**p['calibration']), cold_start)
    tables, raised = [], []
    for _ in range(p['sweeps']):
        clear_module_caches()     # each sweep starts like a fresh CLI process
        out = clock.calls(strata, lambda hd: criterion.incidence_table(hd, manifest))
        tables += out[0]
        raised += out[1]
    caches, rss = module_caches(), _peak_rss_mb()
    failed = raised
    if checked:
        failed = [a or b for a, b in zip(raised, check_tables(tables, minimal_rows_of(tables)))]
    cells = sum(len(t.rows) * len(t.cols) for t in tables if t is not None)
    digest = _digest([None if t is None else [t.hodge, t.cols, t.values] for t in tables])
    return Outcome(cells, len(raised), failed, digest, caches, rss)


# ------------------------------------------------------------ cell queries

def check_queries(queries, answers, tables) -> list:
    """Per query: False when the answer equals the same cell of the
    stratum's full incidence table."""
    return [a is None or a != tables[hd].cell(w, P) for (hd, w, P), a in zip(queries, answers)]


def query_stream(seed, heights, shuffles) -> list:
    """``shuffles`` seeded shuffles of every cell of every stratum with
    height in ``heights``: each cell is queried equally often."""
    cells = [(hd, w, P) for h in heights for d in range(h + 1)
             for hd in [HodgeDatum(h, d)] for w, P in stratum_cells(hd)]
    rng = np.random.default_rng([seed, 2])
    return [cells[i] for _ in range(shuffles) for i in rng.permutation(len(cells))]


def run_cell_queries(seed, p, clock, checked=True) -> Outcome:
    queries = query_stream(seed, p['heights'], p['shuffles'])
    manifest = clock.set_up(p['reps'], lambda: criterion.calibrate(**p['calibration']), cold_start)
    # no cache clearing: the stream is one long session after calibration
    answers, raised = clock.calls(
        queries, lambda q: criterion.lifts_to(q[0], q[1], q[2], manifest))
    caches, rss = module_caches(), _peak_rss_mb()
    failed = raised
    if checked:
        tables = {hd: criterion.incidence_table(hd, manifest) for hd in {q[0] for q in queries}}
        failed = [a or b for a, b in zip(raised, check_queries(queries, answers, tables))]
    digest = _digest(answers)
    return Outcome(len(queries), len(queries), failed, digest, caches, rss)


# ------------------------------------------------------------------ oracle

def check_oracle(samples, tables) -> list:
    """Per sample (hodge, module, class, polygon): False when the module
    satisfies im F = ker V and im V = ker F, the polygon has the stratum's
    height and dimension, and (class, polygon) is a nonempty table cell."""
    bad = []
    for s in samples:
        if s is None:
            bad.append(True)
            continue
        hd, Z, w, P = s
        try:
            Z.check()
        except ValueError:
            bad.append(True)
            continue
        t = tables[hd]
        bad.append(not ((P.height, P.dimension) == (hd.height, hd.dimension)
                        and str(P) in t.cols and tuple(w) in t.rows and t.cell(w, P)))
    return bad


def run_oracle(seed, p, clock, checked=True) -> Outcome:
    inputs = [[(HodgeDatum(h, d), np.random.default_rng([seed, 3, h, d, k]))
               for h, d in p['strata']] for k in range(p['per_stratum'])]
    cfg = clock.set_up(p['reps'], lambda: gf.field(2, 2), cold_start)

    def sample(item):
        hd, rng = item
        sh = core.sample_shtuka(hd, cfg, deg=2, rng=rng)
        Z = core.bt1_of(sh)
        return hd, Z, bt1.eo_classify(Z, hd.dimension), core.newton_polygon_of(sh)

    # one timed call samples each stratum once, so its latency is not split
    # between the fast and the slow strata
    rounds, raised = clock.calls(inputs, lambda items: [sample(item) for item in items])
    width = len(p['strata'])
    samples = [s for r in rounds for s in (r or [None] * width)]
    raised = [err for err in raised for _ in range(width)]
    caches, rss = module_caches(), _peak_rss_mb()
    failed = raised
    if checked:
        manifest = criterion.calibrate()
        tables = {HodgeDatum(h, d): criterion.incidence_table(HodgeDatum(h, d), manifest)
                  for h, d in p['strata']}
        failed = [a or b for a, b in zip(raised, check_oracle(samples, tables))]
    digest = _digest([None if s is None else [list(s[2]), str(s[3])] for s in samples])
    return Outcome(len(samples), len(rounds), failed, digest, caches, rss)


# ------------------------------------------------------------------ orbits

def check_orbits(elements, sizes, trips, classes) -> list:
    """Per orbit: False when its size is 2**length(x) (the orbit of xI
    under I over F_2).  Per round trip (x, shift, matrix): False when the
    class of i1·x·i2 is x again."""
    bad = [n is None or n != 2 ** affine.length(x) for x, n in zip(elements, sizes)]
    bad += [c is None or c != trip[0] for trip, c in zip(trips, classes)]
    return bad


def orbit_inputs(seed, mix, copies, round_trips, cfg) -> tuple:
    """Seeded elements with lambda in {-1,0,1}^h, drawn ``copies`` times per
    (height, length) class count of ``mix``, and for each element
    ``round_trips`` products i1·x·i2 with random Iwahori factors."""
    classes = {}
    for h in sorted({h for h, _ in mix}):
        for lam in itertools.product((-1, 0, 1), repeat=h):
            for u in weyl.all_permutations(h):
                x = affine.Element(lam, u)
                classes.setdefault((h, affine.length(x)), []).append(x)
    rng = np.random.default_rng([seed, 4])
    elements = [classes[c][rng.integers(len(classes[c]))]
                for c in sorted(mix) for _ in range(mix[c] * copies)]
    elements = [elements[i] for i in rng.permutation(len(elements))]
    trips = []
    for x in elements:
        a, s = polymat.pm_from_element(x)
        for _ in range(round_trips):
            i1 = reduction.random_iwahori(x.h, cfg, 3, rng)
            i2 = reduction.random_iwahori(x.h, cfg, 3, rng)
            trips.append((x, s, polymat.pm_mul(polymat.pm_mul(i1, a, cfg), i2, cfg)))
    return elements, trips


def run_orbits(seed, p, clock, checked=True) -> Outcome:
    elements, trips = orbit_inputs(seed, p['mix'], p['copies'], p['round_trips'],
                                   gf.FieldConfig(2, 1))
    cfg = clock.set_up(p['reps'], lambda: gf.field(2, 1), cold_start)

    def call(op):
        if isinstance(op, affine.Element):
            return reduction.iwahori_orbit_size(op, cfg)
        x, s, mat = op      # mat = t^s · i1·x·i2
        return reduction.iwahori_class_of(mat, cfg, shift=s, expected_vdet=x.v_det() + x.h * s)

    n = len(elements)
    outputs, raised = clock.calls(elements + trips, call)
    sizes, classes = outputs[:n], outputs[n:]
    caches, rss = module_caches(), _peak_rss_mb()
    failed = raised
    if checked:
        failed = [a or b for a, b in zip(raised, check_orbits(elements, sizes, trips, classes))]
    digest = _digest([sizes, [None if c is None else [c.lam, c.perm] for c in classes]])
    cosets_counted = sum(s for s in sizes if s is not None)
    # the percentiles describe the orbit calls; the round trips count in wall_s
    return Outcome(cosets_counted, n, failed, digest, caches, rss)


WORKLOADS = {'tables': run_tables, 'cell_queries': run_cell_queries,
             'oracle': run_oracle, 'orbits': run_orbits}
