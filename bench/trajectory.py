"""Performance trajectory of pkernels: end-to-end and layer cases, each
timed in fresh child processes.

    python3 bench/trajectory.py --out BENCH_24.json
    python3 bench/trajectory.py --out BENCH_24.json --side parent=../parent --side change=.

Each ``--side NAME=ROOT`` is a checkout; its cases run in new
interpreters that import ``pkernels`` from ``ROOT/src`` (one side,
``current``, the checkout holding this script, by default).  Every case
runs ``--rounds`` times per side, the sides interleaved round by round
(the first side first in even rounds, last in odd ones) so that a slow
spell of the host hits both, and reports the best and the median wall
time over all rounds and repeats (``best_s``, ``median_s``), the
quartiles of those times (``quartiles_s``), every time, and the largest
peak RSS of its children (each child's own, with the peak of any
process it waited for).  On a loaded host the best is
one lucky child, so compare medians too.  Each side records its commit,
whether its tree was dirty, ``os.cpu_count()``, the number of CPUs in
its affinity (``affinity``, the CPUs calibrate splits its draws over),
the seed, whether numba is importable, and the lines and bytes of its
``src/pkernels/**/*.py`` (``src_lines``, ``src_bytes``), and is stored under its NAME in
``--out`` next to what the file already holds.  The source size is the
measure of the aim of the least code, and perfbench compiles those bytes
on every re-import of the package, so the ``setup_s`` of its ``oracle``
and ``orbits`` workloads follows them.

End-to-end cases: the default ``calibrate()`` from empty caches, and the
same pinned to one CPU (``calibrate_one_cpu``), so that serial and split
times come from one commit; F_4 oracle samples (sample, residue module,
class, Newton polygon) per second at (4, 2) and (8, 4); every table d =
1..h-1 of h = 4, 6, 8, 10 and 11, and of h = 12, the height bound of
criterion.Bounds, which never load the oracle (``pkernels.shtuka``), so
their peak RSS reads the engine alone (each case passes
``Bounds(max_height=h)``, so an older checkout with a lower bound runs
them too); the 50 Iwahori orbits of
acceptance 6 over F_2, in cosets per second; four seeded shuffles of the
302 cells with 2 <= h <= 5 as single-cell ``lifts_to`` queries
(``cell_queries_h5``), in queries per second, each repeat from an empty
session memo and row store; 100 seeded minuscule x of height 7 against their basic
polygon through ``adlv_nonempty`` (``adlv_h7``), in queries per second,
each repeat from an empty session memo; the Tier-1 test suite.
Layer cases:
the first ``eo_classify`` of a module at (11, 5) from an empty memo,
the list kernels ``rref_rows`` and ``polymat_rows`` that the oracle
runs, ``charpoly`` over F_4 at h = 8, n = 9 and at h = 4, n = 5
(``charpoly_h4``), the 400 inverses mod t^2 at h = 2 of calibrate's
sigma-check (``inverse_h2``), 300 residue solves at (5, 2)
(``residue_solve_h5``), ``Packing.red``, ``lattice_key``, affine
multiplication and length, one reduction step (``_conj_delta`` plus
``_conj`` on the flat coding), and the row check ``polygons._minimal_rep``
of the 1208 queries of ``cell_queries_h5`` (``row_check``).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


# ------------------------------------------------------------ the cases

def _clear_caches():
    from pkernels import affine
    affine._length_cache.clear()
    _clear_session_memo()
    # the oracle's caches, only where a case has loaded it: importing it
    # here would put its imports into the peak RSS of the engine's cases
    if 'pkernels.shtuka' in sys.modules:
        from pkernels.shtuka import bt1, gf
        gf.field.cache_clear()
        bt1._reference_signatures.cache_clear()


def _clear_session_memo():
    # the engine's reduction memo, and criterion's row store where the
    # checkout has one
    from pkernels import affine, criterion
    affine._memo.clear()
    criterion.__dict__.get('_rows', {}).clear()


def _calibrate(seed):
    from pkernels.criterion import calibrate

    def run():
        calibrate()
    return run, _clear_caches, {'samples': 1600, 'sigma_trials': 400}


def _calibrate_one_cpu(seed):
    # calibrate pinned to one CPU of the affinity it was started with: the
    # serial time, from the same commit as the split one of calibrate
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return _calibrate(seed)


def _oracle(h, d, count):
    def case(seed):
        import numpy as np
        from pkernels.polygons import HodgeDatum
        from pkernels.shtuka import bt1_of, eo_classify, field, newton_polygon_of, sample_shtuka
        cfg, hd = field(2, 2), HodgeDatum(h, d)
        # warms the field; the first sample of each canonical type is checked inside run
        eo_classify(bt1_of(sample_shtuka(hd, cfg, rng=np.random.default_rng(seed))), d)

        def run():
            for k in range(count):
                sh = sample_shtuka(hd, cfg, rng=np.random.default_rng([seed, h, d, k]))
                eo_classify(bt1_of(sh), d)
                newton_polygon_of(sh)
        return run, None, {'samples': count, 'rate_unit': 'samples/s'}
    return case


def _classify_first(h, d):
    # the first classification of one module's canonical type, from an
    # empty memo: what a new type costs eo_classify
    def case(seed):
        import numpy as np
        from pkernels.polygons import HodgeDatum
        from pkernels.shtuka import bt1, bt1_of, eo_classify, field, sample_shtuka
        Z = bt1_of(sample_shtuka(HodgeDatum(h, d), field(2, 2), rng=np.random.default_rng(seed)))

        def run():
            eo_classify(Z, d)
        return run, bt1._reference_signatures.cache_clear, {'h': h, 'd': d}
    return case


def _strata(h):
    def case(seed):
        from pkernels.criterion import Bounds, incidence_table
        from pkernels.polygons import HodgeDatum
        bounds = Bounds(max_height=h)

        def run():
            for d in range(1, h):
                incidence_table(HodgeDatum(h, d), bounds=bounds)
        return run, _clear_caches, {}
    return case


def _cell_stream(heights, shuffles, seed):
    # seeded shuffles of every cell (hd, w, P) of every stratum of the
    # given heights, d = 0..h: (cells, queries)
    import numpy as np
    from pkernels import weyl
    from pkernels.polygons import HodgeDatum, enumerate_polygons, mu_and_type
    cells = [(hd, w, P) for h in heights for d in range(h + 1)
             for hd in [HodgeDatum(h, d)] for P in enumerate_polygons(hd)
             for w in weyl.min_coset_reps(h, mu_and_type(hd)[1])]
    rng = np.random.default_rng([seed, 2])
    return cells, [cells[i] for _ in range(shuffles) for i in rng.permutation(len(cells))]


def _cell_queries(heights, shuffles):
    # the cell stream as single-cell lifts_to queries in one session; each
    # repeat starts from an empty session memo and row store and a warm
    # length cache
    def case(seed):
        from pkernels.criterion import lifts_to
        cells, queries = _cell_stream(heights, shuffles, seed)

        def run():
            for q in queries:
                lifts_to(*q)
        run()
        return run, _clear_session_memo, {'cells': len(cells), 'queries': len(queries),
                                          'rate_unit': 'queries/s'}
    return case


def _row_check(heights, shuffles):
    # the row check of every query of the cell stream: polygons._minimal_rep
    # on its (hd, w), what lifts_to does on a row store miss
    def case(seed):
        from pkernels import polygons
        rows = [(hd, w) for hd, w, _ in _cell_stream(heights, shuffles, seed)[1]]

        def run():
            for q in rows:
                polygons._minimal_rep(*q)
        return run, None, {'calls': len(rows)}
    return case


def _adlv(h, count):
    # count seeded minuscule x of height h, d uniform in 1..h-1, each
    # against the basic polygon of its stratum through adlv_nonempty: whole
    # reductions of arbitrary elements, whose trees repeat subtrees; each
    # repeat starts from an empty session memo and a warm length cache
    def case(seed):
        import numpy as np
        from fractions import Fraction
        from pkernels.affine import Element
        from pkernels.criterion import adlv_nonempty
        from pkernels.polygons import polygon_from_slopes
        rng = np.random.default_rng([seed, h])
        queries = []
        for _ in range(count):
            d = int(rng.integers(1, h))
            ones = set(rng.permutation(h)[:d].tolist())
            x = Element(tuple(int(i in ones) for i in range(h)),
                        tuple(int(v) + 1 for v in rng.permutation(h)))
            queries.append((x, polygon_from_slopes([Fraction(d, h)] * h)))

        def run():
            for q in queries:
                adlv_nonempty(*q)
        run()
        return run, _clear_session_memo, {'queries': count, 'h': h,
                                          'rate_unit': 'queries/s'}
    return case


def _acceptance6_orbits(seed):
    # the elements of tests/test_acceptance.py::test_acceptance_6, in order
    import numpy as np
    from pkernels import affine
    from pkernels.shtuka import field, iwahori_orbit_size
    cfg = field(2, 1)
    rng = np.random.default_rng([9106])
    xs = []
    while len(xs) < 50:
        h = int(rng.integers(2, 4))
        lam = tuple(int(v) for v in rng.integers(-1, 2, size=h))
        x = affine.Element(lam, tuple(int(v) for v in rng.permutation(h) + 1))
        if affine.length(x) <= 9:
            xs.append(x)

    def run():
        for x in xs:
            iwahori_orbit_size(x, cfg)
    cosets = sum(2 ** affine.length(x) for x in xs)
    return run, None, {'elements': len(xs), 'cosets': cosets, 'rate_unit': 'cosets/s'}


def _tier1(seed):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), 'src'))

    def run():
        subprocess.run([sys.executable, '-m', 'pytest', '-q', '-p', 'no:cacheprovider',
                        '--continue-on-collection-errors'], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run, None, {}


def _matrices(seed, q, shape, count):
    import numpy as np
    rng = np.random.default_rng(seed)
    return [rng.integers(0, q, size=shape, dtype=np.int64) for _ in range(count)]


def _rref_rows(seed):
    # rref_rows reduces its list in place, replacing rows: each call gets
    # a new list of the same rows
    from pkernels import _kernels as K
    from pkernels.shtuka import field
    cfg = field(2, 2)
    mats = [m.tolist() for m in _matrices(seed, cfg.q, (8, 12), 1000)]

    def run():
        for m in mats:
            K.rref_rows(list(m), cfg)
    return run, None, {'calls': len(mats), 'shape': [8, 12]}


def _polymat_rows(seed):
    from pkernels import _kernels as K
    from pkernels.shtuka import field
    cfg = field(2, 2)
    mats = [m.tolist() for m in _matrices(seed, cfg.q, (4, 4, 2), 1000)]

    def run():
        for a, b in zip(mats, mats[1:]):
            K.polymat_rows(a, b, 4, 3, cfg)
    return run, None, {'calls': len(mats) - 1, 'shape': [4, 4, 2]}


def _inverse_h2(seed):
    # the inverses of calibrate's sigma-check: sigma(g)^{-1} mod t^2 of
    # 400 seeded g in GL_2(O) mod t^2 over F_4, one per trial
    from pkernels.shtuka import field, polymat as PM
    from pkernels.shtuka.core import KeyedStream, random_unimodular
    cfg = field(2, 2)
    gs = [PM.pm_frob(random_unimodular(2, cfg, 2, KeyedStream(seed, k)), cfg, 1)
          for k in range(400)]

    def run():
        for g in gs:
            PM.pm_inv_mod(g, 2, cfg)
    return run, None, {'calls': len(gs), 'h': 2, 'n': 2}


def _residue_solve_h5(seed):
    # a datum's mod-t^2 solve at (5, 2): 300 seeded sampled matrices, each
    # built into a new LocalShtuka whose _solve runs once
    import numpy as np
    from pkernels.polygons import HodgeDatum
    from pkernels.shtuka import LocalShtuka, field, sample_shtuka
    cfg = field(2, 2)
    mats = [sample_shtuka(HodgeDatum(5, 2), cfg, rng=np.random.default_rng([seed, k])).amat
            for k in range(300)]

    def run():
        for a in mats:
            LocalShtuka(cfg, a)._solve
    return run, None, {'calls': len(mats), 'h': 5, 'd': 2}


def _packed(seed, h, n, count):
    from pkernels import _kernels as K
    from pkernels.shtuka import field
    cfg = field(2, 2)
    lay = K.Packing(cfg, n, h)
    mats = [[[lay.pack(e) for e in row] for row in m.tolist()]
            for m in _matrices(seed, cfg.q, (h, h, n), count)]
    return lay, mats


def _charpoly(h, n, count):
    def case(seed):
        from pkernels import _kernels as K
        lay, mats = _packed(seed, h, n, count)

        def run():
            for m in mats:
                K.charpoly(m, lay)
        return run, None, {'calls': len(mats), 'h': h, 'n': n}
    return case


def _packing_red(seed):
    lay, mats = _packed(seed, 8, 9, 20)
    red = lay.red
    products = [x * y for m in mats for row in m for x, y in zip(row, row[1:])]

    def run():
        for _ in range(10):
            for x in products:
                red(x)
    return run, None, {'calls': 10 * len(products), 'n': 9}


def _lattice_key(seed):
    import numpy as np
    from pkernels import affine
    from pkernels.shtuka import field, polymat as PM
    from pkernels.shtuka.reduction import lattice_key
    cfg = field(2, 1)
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(100):
        x = affine.Element(tuple(int(v) for v in rng.integers(0, 3, size=3)),
                           tuple(int(v) + 1 for v in rng.permutation(3)))
        mats.append(PM.pm_from_element(x)[0])

    def run():
        for m in mats:
            lattice_key(m, cfg, len(m[0][0]))
    return run, None, {'calls': len(mats), 'h': 3}


def _elements(seed, h, count):
    import numpy as np
    from pkernels import affine
    rng = np.random.default_rng(seed)
    return [affine.Element(tuple(int(v) for v in rng.integers(-3, 4, size=h)),
                           tuple(int(v) + 1 for v in rng.permutation(h)))
            for _ in range(count)]


def _affine_mul(seed):
    xs = _elements(seed, 6, 5001)

    def run():
        for x, y in zip(xs, xs[1:]):
            x * y
    return run, None, {'calls': len(xs) - 1, 'h': 6}


def _affine_length(seed):
    from pkernels import affine
    xs = _elements(seed, 6, 5000)

    def run():
        for x in xs:
            affine.length(x)
    return run, affine._length_cache.clear, {'calls': len(xs), 'h': 6}


def _reduction_step(seed):
    # the reduction's inner step: the length change of s_i·y·s_i, then
    # the conjugate itself, for every i
    from pkernels import affine
    h = 8
    codes = [x.lam + x.perm for x in _elements(seed, h, 1000)]

    def run():
        for c in codes:
            for i in range(h):
                affine._conj_delta(c, i, h)
                affine._conj(c, i, h)
    return run, None, {'calls': h * len(codes), 'h': h}


# name -> (kind, repeats, setup); acceptance6_orbits and oracle_f4_4_2
# take 20 repeats because at 5 their 25 runs per side spread too widely
# to resolve a 20-30 % change (0.22-0.38 s for the orbits), calibrate
# and calibrate_one_cpu 20 because at 5 and 10 calibrate's medians read
# 13 % and 8 % apart on an unchanged path, strata_h10 8 because at 3
# its medians read 8 % apart, strata_h11 and strata_h12 3 (each from
# cleared caches) because at 1 a side's quartiles came from its 5
# children alone, and on a host whose speed drifts between runs the h = 12
# median fell outside the parent's quartiles on identical work,
# strata_h4, strata_h6, cell_queries_h5 and row_check take 50 because
# one run lasts a few milliseconds
CASES = {
    'calibrate': ('end_to_end', 20, _calibrate),
    'calibrate_one_cpu': ('end_to_end', 20, _calibrate_one_cpu),
    'oracle_f4_4_2': ('end_to_end', 20, _oracle(4, 2, 200)),
    'oracle_f4_8_4': ('end_to_end', 3, _oracle(8, 4, 20)),
    'strata_h4': ('end_to_end', 50, _strata(4)),
    'strata_h6': ('end_to_end', 50, _strata(6)),
    'strata_h8': ('end_to_end', 5, _strata(8)),
    'strata_h10': ('end_to_end', 8, _strata(10)),
    'strata_h11': ('end_to_end', 3, _strata(11)),
    'strata_h12': ('end_to_end', 3, _strata(12)),
    'cell_queries_h5': ('end_to_end', 50, _cell_queries((2, 3, 4, 5), 4)),
    'adlv_h7': ('end_to_end', 10, _adlv(7, 100)),
    'acceptance6_orbits': ('end_to_end', 20, _acceptance6_orbits),
    'tier1': ('end_to_end', 1, _tier1),
    'classify_first_11_5': ('layer', 5, _classify_first(11, 5)),
    'rref_rows': ('layer', 5, _rref_rows),
    'polymat_rows': ('layer', 5, _polymat_rows),
    'charpoly': ('layer', 5, _charpoly(8, 9, 200)),
    'charpoly_h4': ('layer', 5, _charpoly(4, 5, 1000)),
    'inverse_h2': ('layer', 5, _inverse_h2),
    'residue_solve_h5': ('layer', 5, _residue_solve_h5),
    'packing_red': ('layer', 5, _packing_red),
    'lattice_key': ('layer', 5, _lattice_key),
    'affine_mul': ('layer', 5, _affine_mul),
    'affine_length': ('layer', 5, _affine_length),
    'reduction_step': ('layer', 5, _reduction_step),
    'row_check': ('layer', 50, _row_check((2, 3, 4, 5), 4)),
}


def run_case(name, seed):
    """In the child: time the case's repeats and return its record, with
    the best and the median time; a rate (per ``rate_unit``, e.g.
    samples/s) is the count its unit names over the best time."""
    kind, repeats, setup = CASES[name]
    run, reset, info = setup(seed)
    times = []
    for _ in range(repeats):
        if reset is not None:
            reset()
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = dict(info, kind=kind, repeats=repeats, best_s=min(times),
               median_s=statistics.median(times), times_s=times,
               peak_rss_mb=round(peak / 1024.0, 1))
    if 'rate_unit' in info:
        out['rate'] = info[info['rate_unit'].split('/')[0]] / min(times)
    return out


# ------------------------------------------------------------ running the cases

def _git(root, *args):
    try:
        return subprocess.run(['git', '-C', root] + list(args), capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _source_size(root):
    """(lines, bytes) of the Python files under ROOT/src/pkernels."""
    lines = size = 0
    for path, _, files in os.walk(os.path.join(root, 'src', 'pkernels')):
        for name in files:
            if name.endswith('.py'):
                with open(os.path.join(path, name), 'rb') as fh:
                    data = fh.read()
                lines, size = lines + data.count(b'\n'), size + len(data)
    return lines, size


def _child(root, name, seed):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, 'src'))
    child = subprocess.run([sys.executable, os.path.abspath(__file__), '--case', name,
                            '--seed', str(seed)], cwd=root, env=env, capture_output=True,
                           text=True)
    if child.returncode:
        raise RuntimeError('case %s failed in %s:\n%s' % (name, root, child.stderr))
    return json.loads(child.stdout)


def measure(sides, seed, rounds):
    """Run every case ``rounds`` times per side, each run in its own
    child, the sides interleaved; one record per side."""
    import importlib.util
    record = {}
    for name, root in sides.items():
        lines, size = _source_size(root)
        record[name] = {
            'commit': _git(root, 'rev-parse', 'HEAD'),
            'dirty': bool(_git(root, 'status', '--porcelain', '--untracked-files=no')),
            'cpu_count': os.cpu_count(),
            'affinity': len(os.sched_getaffinity(0)),
            'seed': seed,
            'numba': importlib.util.find_spec('numba') is not None,
            'python': sys.version.split()[0],
            'src_lines': lines,
            'src_bytes': size,
            'cases': {},
        }
    for case in CASES:
        runs = {name: [] for name in sides}
        order = list(sides.items())
        for k in range(rounds):
            for name, root in order[::-1] if k % 2 else order:
                runs[name].append(_child(root, case, seed))
        for name, got in runs.items():
            best = min(got, key=lambda r: r['best_s'])
            times = [t for r in got for t in r['times_s']]
            quartiles = (statistics.quantiles(times, n=4, method='inclusive')
                         if len(times) > 1 else times * 3)
            out = dict(best, rounds=rounds, times_s=times, median_s=quartiles[1],
                       quartiles_s=[quartiles[0], quartiles[2]],
                       peak_rss_mb=max(r['peak_rss_mb'] for r in got))
            record[name]['cases'][case] = out
            print('%-8s %-18s best %.4f s  median %.4f s  quartiles %.4f-%.4f s  peak %.1f MB'
                  % (name, case, out['best_s'], out['median_s'], quartiles[0], quartiles[2],
                     out['peak_rss_mb']), file=sys.stderr)
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--out', help='the BENCH_<pr>.json to write')
    ap.add_argument('--side', action='append', metavar='NAME=ROOT',
                    help='a checkout to measure, under NAME (repeatable)')
    ap.add_argument('--rounds', type=int, default=5, help='children per case and side')
    ap.add_argument('--seed', type=int, default=20240801)
    ap.add_argument('--case', help=argparse.SUPPRESS)      # a child's one case
    args = ap.parse_args(argv)
    if args.case:
        print(json.dumps(run_case(args.case, args.seed)))
        return 0
    if not args.out:
        ap.error('--out is required')
    if args.rounds < 1:
        ap.error('--rounds must be at least 1')
    sides = {}
    for spec in args.side or ['current=' + os.path.dirname(HERE)]:
        name, sep, root = spec.partition('=')
        if not (name and sep and os.path.isdir(os.path.join(root, 'src', 'pkernels'))):
            ap.error('--side %r is not NAME=ROOT with ROOT/src/pkernels' % spec)
        sides[name] = os.path.abspath(root)
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data.update(measure(sides, args.seed, args.rounds))
    with open(args.out, 'w') as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write('\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())
