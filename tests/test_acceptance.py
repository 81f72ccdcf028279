"""End-to-end acceptance gate.

Eight criteria, one test each, run in order.  Every test prints a single
PASS/FAIL line directly to the terminal (bypassing capture) with its
wall-clock time, and the criteria that carry a time budget enforce it.
"""

import itertools
import time
from collections import deque
from contextlib import contextmanager
from math import comb, gcd

import numpy as np

from pkernels import affine, weyl
from pkernels.affine import Element
from pkernels.criterion import (adlv_nonempty, calibrate, incidence_table,
                                lifts_to)
from pkernels.polygons import (HodgeDatum, enumerate_polygons,
                               eo_representative, parse_polygon)
from pkernels.semimodules import (cochar_to_beginning, enumerate_cochar_block,
                                  enumerate_profiles, is_beginning, middle_element)
from pkernels.shtuka import (bt1_of, eo_classify, field, iwahori_orbit_size,
                             minimal_shtuka, newton_polygon_of,
                             random_filtration_data, sample_shtuka,
                             verify_lift)
from pkernels.shtuka import polymat as PM
from pkernels.shtuka.reduction import iwahori_class_of, random_iwahori
from test_semimodules import beginning_to_cochar

_STATE = {}


def _calibrated():
    # the calibrate() report, shared across criteria; the first caller
    # (criterion 1, which owns the time budget for it) pays for the run
    if 'report' not in _STATE:
        _STATE['report'] = calibrate(probes=((2, 1),), samples={(2, 1): 1000})
    return _STATE['report']


@contextmanager
def _report(capsys, num, desc, budget=None):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        dt = time.monotonic() - t0
        if budget is not None and dt >= budget:
            raise AssertionError('time budget exceeded: %.1fs >= %ds'
                                 % (dt, budget))
        ok = True
    finally:
        dt = time.monotonic() - t0
        with capsys.disabled():
            print('ACCEPTANCE %d %s: %s (%.1fs)'
                  % (num, 'PASS' if ok else 'FAIL', desc, dt))


def test_acceptance_1_height_two_ground_truth(capsys):
    with _report(capsys, 1, 'the four height-2 cells match elliptic curves '
                 'and the oracle check passes', budget=10):
        m = _calibrated()
        hd = HodgeDatum(2, 1)
        ss, ordi = parse_polygon('1/2x2'), parse_polygon('0,1')
        assert lifts_to(hd, (1, 2), ss, m) is True
        assert lifts_to(hd, (2, 1), ordi, m) is True
        assert lifts_to(hd, (1, 2), ordi, m) is False
        assert lifts_to(hd, (2, 1), ss, m) is False
        assert incidence_table(hd, m).provenance['seed'] == m['seed']
        # 1000 oracle samples hit both nonempty cells and nothing else
        obs = m['observed']['[2, 1]']
        assert sum(obs.values()) == 1000
        assert set(obs) == {'[1, 2]|1/2x2', '[2, 1]|0,1'}
        assert m['sigma']['trials'] == 400


def test_acceptance_2_oracle_soundness_sweep(capsys):
    with _report(capsys, 2, 'no sampled matrix ever lands in a cell the '
                 'criterion declares empty', budget=300):
        m = _calibrated()
        cfg = field(2, 2)
        violations = []
        for (h, d) in ((2, 1), (3, 1), (3, 2), (4, 2)):
            hd = HodgeDatum(h, d)
            tbl = incidence_table(hd, m)
            for k in range(300):
                rng = np.random.default_rng([9102, h, d, k])
                sh = sample_shtuka(hd, cfg, deg=2, rng=rng)
                w = eo_classify(bt1_of(sh), d)
                P = newton_polygon_of(sh)
                if tbl.cell(w, str(P)) is not True:
                    violations.append((h, d, w, str(P)))
        assert violations == []


def test_acceptance_3_minimal_modules_meet_their_stratum(capsys):
    with _report(capsys, 3, 'the minimal module of every polygon up to '
                 'height 5 lies in its own cell', budget=120):
        m = _calibrated()
        cfg = field(2, 2)
        for h in range(1, 6):
            for d in range(0, h + 1):
                hd = HodgeDatum(h, d)
                for P in enumerate_polygons(hd):
                    w = eo_classify(bt1_of(minimal_shtuka(P, cfg)), d)
                    assert lifts_to(hd, w, P, m) is True, (str(P), w)


def test_acceptance_4_no_empty_row_or_column(capsys):
    with _report(capsys, 4, 'every row and every column of every table up '
                 'to height 5 has a nonempty cell'):
        m = _calibrated()
        for h in range(1, 6):
            for d in range(0, h + 1):
                t = incidence_table(HodgeDatum(h, d), m)
                for i, w in enumerate(t.rows):
                    assert any(t.values[i]), (h, d, 'row', w)
                for j, col in enumerate(t.cols):
                    assert any(row[j] for row in t.values), (h, d, 'col', col)


def _window_beginnings(n, m):
    # independent search: one-per-residue subsets of a bounded window,
    # closure restated inline; the count assertion in the caller guards
    # against the window being too small
    h = n + m
    K = (n * m + h) // h + 2
    out = set()
    for ks in itertools.product(range(K), repeat=h):
        C = frozenset(r + ks[r] * h for r in range(h))
        if min(C) != 0:
            continue
        if all((i + n in C) or (i - m in C) for i in C):
            out.add(C)
    return out


def test_acceptance_5_counting_law(capsys):
    with _report(capsys, 5, 'cochar and beginning counts match the closed '
                 'forms and the bijection round-trips'):
        blocks = [(n, m) for n in range(0, 9) for m in range(0, 9)
                  if 0 < n + m <= 8 and gcd(n, m) == 1]
        for n, m in blocks:
            h = n + m
            cochars = enumerate_cochar_block(n, m)
            assert len(cochars) == comb(h, n), (n, m)
            assert len(set(cochars)) == len(cochars)
            normalized = set()
            for lam in cochars:
                B = cochar_to_beginning(lam, n, m)
                assert is_beginning(B.C, n, m)
                assert beginning_to_cochar(B) == lam
                lo = min(B.C)
                normalized.add(frozenset(c - lo for c in B.C))
            assert len(normalized) == comb(h, n) // h, (n, m)
            assert normalized == _window_beginnings(n, m), (n, m)


def test_acceptance_6_lengths_match_matrix_geometry(capsys):
    with _report(capsys, 6, 'length formula, orbit sizes and reduction all '
                 'agree with explicit matrices'):
        cfg1 = field(2, 1)
        cfg = field(2, 2)

        # distances in the Cayley graph equal the length formula,
        # exhaustively in the box |lam| <= 2 for h <= 3 (the search may
        # roam out to |lam| <= 4 so geodesics are not clipped)
        for h in (2, 3):
            gens = [affine.simple_reflection(h, i) for i in range(h)]
            box = [Element(lam, u)
                   for lam in itertools.product(range(-2, 3), repeat=h)
                   for u in weyl.all_permutations(h)]
            by_k = {}
            for x in box:
                by_k.setdefault(x.v_det(), []).append(x)
            for k, targets in sorted(by_k.items()):
                start = affine.omega(h) ** k
                dist = {start: 0}
                queue = deque([start])
                while queue:
                    cur = queue.popleft()
                    if dist[cur] >= 40:
                        continue
                    for s in gens:
                        nxt = cur * s
                        if max(abs(v) for v in nxt.lam) > 4 or nxt in dist:
                            continue
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
                for x in targets:
                    assert dist[x] == affine.length(x), x

        # [I : I cap xIx^{-1}] = q^{l(x)} over F_2((t)) on 50 random
        # small elements
        rng = np.random.default_rng([9106])
        done = 0
        while done < 50:
            h = int(rng.integers(2, 4))
            lam = tuple(int(v) for v in rng.integers(-1, 2, size=h))
            perm = tuple(int(v) for v in rng.permutation(h) + 1)
            x = Element(lam, perm)
            if affine.length(x) > 9:
                continue
            assert iwahori_orbit_size(x, cfg1) == 2 ** affine.length(x), x
            done += 1

        # reduction recovers the class through random I-factors, 200/200
        count = 0
        for h in (2, 3, 4):
            for trial in range(67):
                if count == 200:
                    break
                rng = np.random.default_rng([9107, h, trial])
                lam = tuple(int(v) for v in rng.integers(-1, 2, size=h))
                perm = tuple(int(v) for v in rng.permutation(h) + 1)
                x = Element(lam, perm)
                a, s = PM.pm_from_element(x)
                i1 = random_iwahori(h, cfg, 3, rng)
                i2 = random_iwahori(h, cfg, 3, rng)
                mat = PM.pm_mul(PM.pm_mul(i1, a, cfg), i2, cfg)
                got = iwahori_class_of(mat, cfg, shift=s,
                                       expected_vdet=x.v_det() + h * s)
                assert got == x
                count += 1
        assert count == 200


def test_acceptance_7_random_filtrations_lift(capsys):
    with _report(capsys, 7, '50 random filtration data sets lift with the '
                 'residue, triangularity, and polygon checks green'):
        cfg = field(2, 2)
        polys = [P for h in (2, 3, 4) for d in range(0, h + 1)
                 for P in enumerate_polygons(HodgeDatum(h, d))]
        failures = []
        for k in range(50):
            P = polys[k % len(polys)]
            data = random_filtration_data(P, cfg, rng=np.random.default_rng(910000 + k))
            rep = verify_lift(data)
            for key in ('residue', 'block_triangular', 'polygon'):
                if rep[key] is not True:
                    failures.append((str(P), k, key))
        assert failures == []


def test_acceptance_8_explicit_elements_match_table(capsys):
    with _report(capsys, 8, 'the explicit monomial condition reproduces the '
                 'table rows and accepts every middle element'):
        m = _calibrated()
        for h in range(1, 5):
            for d in range(0, h + 1):
                hd = HodgeDatum(h, d)
                t = incidence_table(hd, m)
                polys = [parse_polygon(c) for c in t.cols]
                for w in t.rows:
                    x = eo_representative(hd, w)
                    for P in polys:
                        assert adlv_nonempty(x, P, m) == t.cell(w, str(P)), \
                            (h, d, w, str(P))
                for P in polys:
                    for prof in enumerate_profiles(P):
                        z = middle_element(prof, P)
                        assert adlv_nonempty(z, P, m) is True, (str(P), prof.lam)
