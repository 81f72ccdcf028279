"""Self-test of the benchmark: tiny runs print every metric, and every
output checker fires on a corrupted result.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / 'src')]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from pkernels import criterion  # noqa: E402
from pkernels.polygons import HodgeDatum  # noqa: E402
from pkernels.shtuka import bt1, core, gf  # noqa: E402

SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())
WORKLOADS = [w['name'] for w in SPEC['workloads']]


def _run(workload, trace, cwd=ROOT, script=HERE / 'run.py'):
    proc = subprocess.run([sys.executable, str(script), '--workload', workload, '--seed', '3',
                           '--seconds', '10', '--trace', str(trace), '--size', 'tiny'],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def _assert_reports(lines, specs):
    result = json.loads(lines[-1])
    assert sorted(result) == ['attempted', 'correct', 'failed', 'metrics']
    assert result['correct'] and result['failed'] == 0 and result['attempted'] >= 1
    assert sorted(result['metrics']) == sorted(m['name'] for m in specs)
    for m in specs:
        assert result['metrics'][m['name']]['unit'] == m['unit']
        assert any(line.split()[:1] == [m['name']] and m['unit'] in line.split()
                   for line in lines[:-2]), m['name']
    return result, json.loads(lines[-2])


@pytest.mark.parametrize('workload', WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc, lines = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    _, env = _assert_reports(lines, SPEC['end_to_end'])
    assert {'nproc', 'use_numba', 'have_numba', 'python', 'numpy', 'seed'} <= set(env['env'])
    assert set(env['caches']) == {'affine._length_cache', 'cosets._left_tables',
                                  'cosets._right_tables'}
    assert env['failed_frac'] == 0


@pytest.mark.parametrize('workload', WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    proc, lines = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    _assert_reports(lines, SPEC['per_layer'])
    assert 'counts identical across two traced runs: True' in lines


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns('out', '__pycache__'))
    proc, lines = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / 'run.py')
    assert proc.returncode != 0
    assert not any(line.startswith('{') for line in lines)


def test_probes_inside_a_call_are_taken_out_of_its_time():
    host = hostspeed.HostSpeed('python')
    host.probe()
    with host.probing():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        t1 = time.perf_counter()
    host.probe()
    inside = [d for t, d in zip(host.at, host.took) if t0 <= t - d and t <= t1]
    assert len(inside) >= 2
    scaled, spent = host.scaled(t0, t1)
    assert spent == pytest.approx(t1 - t0 - sum(inside))
    assert scaled == pytest.approx(spent * host.nominal_s / host.probe_s(t0, t1))


# ------------------------------------------------- checkers on corrupt data

@pytest.fixture(scope='module')
def manifest():
    return criterion.calibrate(**workloads.TINY_CALIBRATION)


def _frac(bad):
    return sum(bad) / len(bad)


def test_tables_checker_fires(manifest):
    tables = [criterion.incidence_table(HodgeDatum(3, d), manifest) for d in range(4)]
    minimal = workloads.minimal_rows_of(tables)
    assert _frac(workloads.check_tables(tables, minimal)) == 0
    t = tables[1]
    col = t.cols[0]
    i = t.rows.index(tuple(minimal[(t.hodge, col)]))
    values = [list(r) for r in t.values]
    values[i][0] = False                      # one flipped cell
    tables[1] = dataclasses.replace(t, values=tuple(map(tuple, values)))
    assert _frac(workloads.check_tables(tables, minimal)) > 0


def test_queries_checker_fires(manifest):
    queries = workloads.query_stream(5, (2, 3), 1)
    tables = {hd: criterion.incidence_table(hd, manifest) for hd in {q[0] for q in queries}}
    answers = [tables[hd].cell(w, P) for hd, w, P in queries]
    assert _frac(workloads.check_queries(queries, answers, tables)) == 0
    answers[7] = not answers[7]
    assert _frac(workloads.check_queries(queries, answers, tables)) > 0


def test_oracle_checker_fires(manifest):
    cfg = gf.field(2, 2)
    hd = HodgeDatum(3, 1)
    samples = []
    for k in range(3):
        sh = core.sample_shtuka(hd, cfg, rng=np.random.default_rng([5, k]))
        Z = core.bt1_of(sh)
        samples.append((hd, Z, bt1.eo_classify(Z, 1), core.newton_polygon_of(sh)))
    tables = {hd: criterion.incidence_table(hd, manifest)}
    assert _frac(workloads.check_oracle(samples, tables)) == 0
    t = tables[hd]
    hd0, Z, w, P = samples[0]
    j = t.cols.index(str(P))
    empty = next(r for r, row in zip(t.rows, t.values) if not row[j])
    samples[0] = (hd0, Z, empty, P)           # a class the table calls empty
    assert _frac(workloads.check_oracle(samples, tables)) > 0


def test_orbits_checker_fires():
    from pkernels import affine
    elements, trips = workloads.orbit_inputs(5, workloads.ORBIT_MIX_TINY, 1, 1,
                                             gf.FieldConfig(2, 1))
    sizes = [2 ** affine.length(x) for x in elements]
    classes = [x for x, _, _ in trips]
    assert _frac(workloads.check_orbits(elements, sizes, trips, classes)) == 0
    assert _frac(workloads.check_orbits(elements, [sizes[0] + 1] + sizes[1:],
                                        trips, classes)) > 0
    assert _frac(workloads.check_orbits(elements, sizes, trips,
                                        classes[1:] + classes[:1])) > 0
