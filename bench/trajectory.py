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
time over all rounds and repeats (``best_s``, ``median_s``), every
time, and the largest peak RSS of its children (each child's own, with
the peak of any process it waited for).  On a loaded host the best is
one lucky child, so compare medians too.  Each side records its commit,
whether its tree was dirty, ``os.cpu_count()``, the seed, whether numba
is importable, and the lines and bytes of its ``src/pkernels/**/*.py``
(``src_lines``, ``src_bytes``), and is stored under its NAME in
``--out`` next to what the file already holds.  The source size is the
measure of the aim of the least code, and perfbench compiles those bytes
on every re-import of the package, so the ``setup_s`` of its ``oracle``
and ``orbits`` workloads follows them.

End-to-end cases: the default ``calibrate()`` from empty caches; F_4
oracle samples (sample, residue module, class, Newton polygon) per
second at (4, 2) and (8, 4); every table d = 1..h-1 of h = 4, 6, 8
and 10, and of h = 11, the height bound of criterion.Bounds; the 50
Iwahori orbits of acceptance 6 over F_2, in cosets per second; the
Tier-1 test suite.  Layer cases: the first ``eo_classify`` of a module
at (11, 5) from an empty memo, the list kernels ``rref_rows`` and
``polymat_rows`` that the oracle runs, ``charpoly`` over F_4 at h = 8,
n = 9 and at h = 4, n = 5 (``charpoly_h4``), ``Packing.red``,
``lattice_key``, affine multiplication and length, and one reduction
step (``_conj_delta`` plus ``_conj`` on the flat coding).
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
    from pkernels.shtuka import bt1, gf
    affine._length_cache.clear()
    gf.field.cache_clear()
    bt1._reference_signatures.cache_clear()


def _calibrate(seed):
    from pkernels.criterion import calibrate

    def run():
        calibrate()
    return run, _clear_caches, {'samples': 1600, 'sigma_trials': 400}


def _oracle(h, d, count):
    def case(seed):
        import numpy as np
        from pkernels.polygons import HodgeDatum
        from pkernels.shtuka import bt1_of, eo_classify, field, newton_polygon_of, sample_shtuka
        cfg, hd = field(2, 2), HodgeDatum(h, d)
        # warms the field; the first sample of each canonical type is checked inside run
        eo_classify(bt1_of(sample_shtuka(hd, cfg, seed=seed)), d)

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
        from pkernels.polygons import HodgeDatum
        from pkernels.shtuka import bt1, bt1_of, eo_classify, field, sample_shtuka
        Z = bt1_of(sample_shtuka(HodgeDatum(h, d), field(2, 2), seed=seed))

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


# name -> (kind, repeats, setup); acceptance6_orbits takes 20 repeats
# because at 5 its 25 runs per side spread by 0.22-0.38 s, too wide to
# resolve a 30 % change, and strata_h4 and strata_h6 take 50 because one
# run lasts a few milliseconds
CASES = {
    'calibrate': ('end_to_end', 5, _calibrate),
    'oracle_f4_4_2': ('end_to_end', 5, _oracle(4, 2, 200)),
    'oracle_f4_8_4': ('end_to_end', 3, _oracle(8, 4, 20)),
    'strata_h4': ('end_to_end', 50, _strata(4)),
    'strata_h6': ('end_to_end', 50, _strata(6)),
    'strata_h8': ('end_to_end', 5, _strata(8)),
    'strata_h10': ('end_to_end', 3, _strata(10)),
    'strata_h11': ('end_to_end', 1, _strata(11)),
    'acceptance6_orbits': ('end_to_end', 20, _acceptance6_orbits),
    'tier1': ('end_to_end', 1, _tier1),
    'classify_first_11_5': ('layer', 5, _classify_first(11, 5)),
    'rref_rows': ('layer', 5, _rref_rows),
    'polymat_rows': ('layer', 5, _polymat_rows),
    'charpoly': ('layer', 5, _charpoly(8, 9, 200)),
    'charpoly_h4': ('layer', 5, _charpoly(4, 5, 1000)),
    'packing_red': ('layer', 5, _packing_red),
    'lattice_key': ('layer', 5, _lattice_key),
    'affine_mul': ('layer', 5, _affine_mul),
    'affine_length': ('layer', 5, _affine_length),
    'reduction_step': ('layer', 5, _reduction_step),
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
            out = dict(best, rounds=rounds, times_s=times, median_s=statistics.median(times),
                       peak_rss_mb=max(r['peak_rss_mb'] for r in got))
            record[name]['cases'][case] = out
            print('%-8s %-18s best %.4f s  median %.4f s  peak %.1f MB'
                  % (name, case, out['best_s'], out['median_s'], out['peak_rss_mb']),
                  file=sys.stderr)
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
