#!/usr/bin/env python3
"""Benchmark of pkernels: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the workload runs untraced in this process and the
end-to-end metrics are reported.  With ``--trace 1`` this process starts
three runs of the workload one after another, each in a fresh process:
one untraced and two traced.  It reports the per-layer metrics of the
first traced run and the tracing overhead (traced minus untraced wall
time of the timed phase), and it checks that both traced runs produced
the same outputs and identical counts.

End-to-end times are scaled to a nominal host speed by a probe that runs
every 0.1 s (see hostspeed.py); the unscaled times and the latency
percentiles are printed too, without a bound.

Every run prints each metric with its unit, then a JSON line with the
environment and the module-cache sizes, and last a JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output check passed, 1 when one failed, and nonzero
without a result when pkernels cannot be imported from ``src/`` next to
this directory.  See README.md in this directory for the workloads.
"""

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / 'src'
OUT = HERE / 'out'

WORKLOADS = ('tables', 'cell_queries', 'oracle', 'orbits')
# set-up repetitions of an untraced run; setup_s reports their median
SETUP_REPS = {'tables': 2, 'cell_queries': 2, 'oracle': 5, 'orbits': 5}
# the host-speed probe that does the same kind of work as the workload
PROBE = {'tables': 'python', 'cell_queries': 'python', 'oracle': 'numpy', 'orbits': 'numpy'}
# imports of pkernels per untraced run; setup_s counts their median
IMPORT_REPS = 5
END_TO_END_UNITS = {'setup_s': 's', 'wall_s': 's', 'ops_per_s': '1/s', 'peak_rss_mb': 'MB'}
# what one timed call is, and what ops_per_s counts
CALL = {'tables': ('table', 'cells'), 'cell_queries': ('query', 'queries'),
        'oracle': ('round', 'samples'), 'orbits': ('orbit', 'cosets')}
PERCENTILES = (50, 90, 99)
# a traced invocation must end within this many seconds
TRACE_BUDGET_S = 170


def import_package():
    """Import pkernels from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    try:
        import pkernels
        import pkernels.shtuka  # noqa: F401
    except ImportError as exc:
        raise SystemExit('perfbench: cannot import pkernels from %s: %s' % (SRC, exc))
    if Path(pkernels.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit('perfbench: pkernels was imported from %s, not from %s'
                         % (pkernels.__file__, SRC))


def environment(args) -> dict:
    import numpy
    from pkernels import _kernels, __version__
    return {'workload': args.workload, 'seed': args.seed, 'seconds': args.seconds,
            'size': args.size, 'nproc': os.cpu_count(), 'use_numba': _kernels.USE_NUMBA,
            'have_numba': _kernels.HAVE_NUMBA, 'python': platform.python_version(),
            'numpy': numpy.__version__, 'pkernels': __version__}


def reimport():
    """Import pkernels again, as a fresh process does once numpy is loaded."""
    for name in [n for n in sys.modules if n == 'pkernels' or n.startswith('pkernels.')]:
        del sys.modules[name]
    importlib.import_module('pkernels.shtuka')


def run_workload(args, traced: bool, full_setup: bool) -> dict:
    """Run the workload in this process; a JSON-ready summary.  With
    ``full_setup`` the import and the set-up are repeated for setup_s."""
    import_package()
    from hostspeed import Clock
    tracer = None
    if traced:
        from tracer import Tracer
        run_id = '%s-seed%d-%s-pid%d' % (args.workload, args.seed, args.child, os.getpid())
        tracer = Tracer(run_id)
    clock = Clock(PROBE[args.workload], tracer)
    _, import_s, import_raw_s = clock.repeat(IMPORT_REPS if full_setup else 0, reimport)
    import workloads    # after the last import, so it binds the modules in use
    p = workloads.plan(args.workload, args.seconds, tiny=args.size == 'tiny')
    p['reps'] = SETUP_REPS[args.workload] if full_setup else 1
    out = workloads.WORKLOADS[args.workload](args.seed, p, clock, checked=not traced)
    summary = {
        'import_s': import_s, 'import_raw_s': import_raw_s,
        'setup_s': clock.setup_s, 'setup_raw_s': clock.setup_raw_s,
        'wall_s': sum(clock.op_s), 'wall_raw_s': sum(clock.op_raw_s),
        'host_speed': clock.host.speed(), 'items': out.items,
        'op_s': clock.op_s[:out.latency_ops], 'attempted': len(out.failed),
        'failed': sum(out.failed), 'digest': out.digest, 'caches': out.caches,
        'peak_rss_mb': out.peak_rss_mb, 'env': environment(args),
    }
    if tracer is not None:
        summary['layers'] = tracer.layer_metrics(out.caches)
        OUT.mkdir(exist_ok=True)
        path = OUT / ('spans-%s-%s.npz' % (args.workload, args.child))
        tracer.save(path)
        summary['spans'] = str(path.relative_to(HERE.parent))
    return summary


def percentile(values, q) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def end_to_end(s: dict) -> dict:
    wall = s['wall_s']
    return {
        'setup_s': statistics.median(s['import_s']) + statistics.median(s['setup_s']),
        'wall_s': wall,
        'ops_per_s': s['items'] / wall,
        'peak_rss_mb': s['peak_rss_mb'],
    }


def run_child(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), '--workload', args.workload,
           '--seed', str(args.seed), '--seconds', str(args.seconds), '--trace', '0',
           '--size', args.size, '--child', mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit('perfbench: %s run of %s exceeded the time budget'
                         % (mode, args.workload))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit('perfbench: %s run of %s exited with %d'
                         % (mode, args.workload, proc.returncode))
    return json.loads(lines[-1])


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else '%.6f' % v


def report(lines, env: dict, correct: bool, attempted: int, failed: int, metrics: dict):
    for line in lines:
        print(line)
    print(json.dumps(env, sort_keys=True))
    print(json.dumps({'correct': correct, 'attempted': attempted, 'failed': failed,
                      'metrics': metrics}, sort_keys=True))


def main_untraced(args) -> int:
    s = run_workload(args, traced=False, full_setup=True)
    values = end_to_end(s)
    metrics = {k: {'value': v, 'unit': END_TO_END_UNITS[k]} for k, v in values.items()}
    lines = ['%-26s %16.6f %s' % (k, v, END_TO_END_UNITS[k]) for k, v in values.items()]
    # not bounded: the latency percentiles, and the times as measured
    call, items = CALL[args.workload]
    lines.append('%-26s %16.6f 1/s  (= ops_per_s)' % (items + '_per_s', values['ops_per_s']))
    latency = {'%s_p%d_ms' % (call, q): 1e3 * percentile(s['op_s'], q) for q in PERCENTILES}
    lines += ['%-26s %16.6f ms  (of %d calls)' % (k, v, len(s['op_s'])) for k, v in latency.items()]
    raw = {'raw_setup_s': statistics.median(s['import_raw_s']) + statistics.median(s['setup_raw_s']),
           'raw_wall_s': s['wall_raw_s']}
    lines += ['%-26s %16.6f s  (unscaled)' % kv for kv in raw.items()]
    lines.append('%-26s %16.6f  (nominal / measured probe time)' % ('host_speed', s['host_speed']))
    failed_frac = s['failed'] / s['attempted']
    lines.append('%-26s %16.6f ratio  (%d of %d operations)'
                 % ('failed_frac', failed_frac, s['failed'], s['attempted']))
    env = {'env': s['env'], 'caches': s['caches'], 'failed_frac': failed_frac,
           'latency_ms': latency, 'calls': len(s['op_s']), 'raw': raw,
           'host_speed': s['host_speed'], 'import_runs_s': s['import_s'],
           'setup_runs_s': s['setup_s']}
    correct = s['failed'] == 0
    report(lines, env, correct, s['attempted'], s['failed'], metrics)
    return 0 if correct else 1


def main_traced(args) -> int:
    import_package()
    deadline = time.monotonic() + TRACE_BUDGET_S
    plain = run_child(args, 'plain', deadline)
    runs = [run_child(args, mode, deadline) for mode in ('traced-a', 'traced-b')]
    counts = [{k: v for k, (v, unit) in r['layers'].items() if unit != 's'} for r in runs]
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    same_outputs = plain['digest'] == runs[0]['digest'] == runs[1]['digest']
    metrics = {k: {'value': v, 'unit': unit} for k, (v, unit) in runs[0]['layers'].items()}
    metrics['trace_overhead_s'] = {'value': runs[0]['wall_s'] - plain['wall_s'], 'unit': 's'}
    lines = ['%-40s %18s %s' % (k, _fmt(m['value']), m['unit']) for k, m in metrics.items()]
    lines.append('counts identical across two traced runs: %s%s'
                 % (not differ, '' if not differ else ' (differ: %s)' % ', '.join(differ)))
    lines.append('traced outputs equal the checked untraced outputs: %s' % same_outputs)
    env = {'env': plain['env'], 'caches': runs[0]['caches'],
           'failed_frac': plain['failed'] / plain['attempted'],
           'untraced_wall_s': plain['wall_s'], 'traced_wall_s': [r['wall_s'] for r in runs],
           'spans': [r['spans'] for r in runs]}
    correct = plain['failed'] == 0 and not differ and same_outputs
    report(lines, env, correct, plain['attempted'], plain['failed'], metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description='pkernels benchmark (see README.md here)')
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, default=10.0,
                    help='scales the work of the timed phase to about this long')
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--size', choices=('full', 'tiny'), default='full',
                    help='tiny: minimal inputs, for the self-test')
    ap.add_argument('--child', help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        # one run started by a traced invocation: summary as the last line
        s = run_workload(args, traced=args.child != 'plain', full_setup=False)
        print(json.dumps(s))
        return 0 if s['failed'] == 0 else 1
    return main_traced(args) if args.trace else main_untraced(args)


if __name__ == '__main__':
    sys.exit(main())
