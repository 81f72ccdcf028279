"""Polynomial matrices over F_q: determinant, characteristic polynomial,
the residue of t·A^{-1}, series inversion, and lattice normal forms.

Determinant-family functions are checked against a brute permutation
expansion written here from scratch (its own polynomial arithmetic and
sign handling), including in odd characteristic where signs matter.
"""

import itertools

import numpy as np
import pytest

from conftest import arrays
from pkernels import _kernels as K
from pkernels.affine import Element
from pkernels.polygons import HodgeDatum
from pkernels.shtuka import LocalShtuka, bt1_of, field, sample_shtuka
from pkernels.shtuka import polymat as PM
from pkernels.shtuka.core import random_unimodular
from pkernels.shtuka.reduction import lattice_key, random_iwahori


def _rand_pm(rng, q, h, deg):
    return rng.integers(0, q, size=(h, h, deg + 1), dtype=np.int64)


def _rows(a):
    """An ndarray as the nested tuples of ints of the matrix form."""
    return tuple(map(_rows, a)) if np.ndim(a) else int(a)


# ----------------------------------------------- brute polynomial algebra

def _bp_mul(a, b, cfg):
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = arrays(cfg).add[out[i + j], arrays(cfg).mul[x, y]]
    return out


def _bp_add(a, b, cfg):
    n = max(len(a), len(b))
    a = np.pad(a, (0, n - len(a)))
    b = np.pad(b, (0, n - len(b)))
    return arrays(cfg).add[a, b]


def _brute_det(a, cfg, skip_row=None, skip_col=None):
    a = np.asarray(a)
    rows = [i for i in range(a.shape[0]) if i != skip_row]
    cols = [j for j in range(a.shape[1]) if j != skip_col]
    acc = np.zeros(1, dtype=np.int64)
    for perm in itertools.permutations(range(len(cols))):
        term = np.ones(1, dtype=np.int64)
        for k, i in enumerate(rows):
            term = _bp_mul(term, a[i, cols[perm[k]]], cfg)
        inv = sum(1 for x in range(len(perm)) for y in range(x + 1, len(perm))
                  if perm[x] > perm[y])
        if inv % 2:
            term = arrays(cfg).neg[term]
        acc = _bp_add(acc, term, cfg)
    return acc


def _valuation(c):
    # valuation of a 1D coefficient vector, None for 0
    return next((i for i, e in enumerate(c) if e), None)


def _trim(v):
    v = np.asarray(v)
    nz = np.nonzero(v)[0]
    return v[:nz[-1] + 1] if nz.size else v[:1] * 0


@pytest.mark.parametrize('p,r', [(2, 2), (2, 3), (3, 1)])
@pytest.mark.parametrize('h', [1, 2, 3, 4, 5])
def test_det_matches_brute(p, r, h):
    cfg = field(p, r)
    for trial in range(6):
        rng = np.random.default_rng([51, p, r, h, trial])
        a = _rand_pm(rng, cfg.q, h, 2)
        cp0 = np.array(PM.pm_char_poly(a, cfg)[0])  # det(-a) = (-1)^h·det(a)
        got = _trim(arrays(cfg).neg[cp0] if h % 2 else cp0)
        want = _trim(_brute_det(a, cfg))
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize('p,r', [(2, 2), (3, 1)])
@pytest.mark.parametrize('h', [2, 3, 4, 5])
def test_residue_solve_matches_brute_adjugate(p, r, h):
    # t·A^{-1} = t·adj(A)/det(A), with adj from the brute minors: A is
    # minuscule iff det != 0 and v(adj) >= v(det) - 1 entrywise, and then
    # V mod t is coefficient v(det) - 1 of adj over the unit of det.
    # Trial 0 is minuscule with v(det) = k: k rows of A0 are zero, and
    # they and the t-rows below them form an invertible matrix.  Trial 1
    # is uniform, times a uniform constant: singular, non-minuscule or not.
    cfg = field(p, r)
    seen = set()
    for k in range(h + 1):
        for trial in range(2):
            rng = np.random.default_rng([52, p, r, h, k, trial])
            a = _rand_pm(rng, cfg.q, h, 2)
            if trial == 0:
                rows = rng.permutation(h)[:k]
                c = np.array(random_unimodular(h, cfg, 1, rng))[:, :, 0]
                a[:, :, 0] = c
                a[rows, :, 1] = c[rows]
                a[rows, :, 0] = 0
                a = PM.pm_mul(np.array(random_unimodular(h, cfg, 1, rng)), a, cfg)
            else:
                a = PM.pm_mul(_rand_pm(rng, cfg.q, h, 0), a, cfg)
            det = _trim(_brute_det(a, cfg))
            adj = []
            for i in range(h):
                for j in range(h):
                    m = _brute_det(a, cfg, skip_row=j, skip_col=i)
                    adj.append(_trim(arrays(cfg).neg[m] if (i + j) % 2 else m))
            v = _valuation(det)
            sh = LocalShtuka(cfg, a)
            if v is None or any(_valuation(m) is not None and _valuation(m) < v - 1
                                for m in adj):
                assert trial == 1
                seen.add('rejected')
                with pytest.raises(ValueError):
                    bt1_of(sh)
                continue
            assert trial == 1 or v == k
            seen.add(v)
            c = cfg.tables[3][det[v]]
            want = [cfg.tables[1][c][m[v - 1]] if 0 < v <= len(m) else 0 for m in adj]
            got = [cfg.frobs[0][x] for row in bt1_of(sh).vmat for x in row]
            assert got == want, (k, trial)
            assert sh.dimension == v
    assert 'rejected' in seen


@pytest.mark.parametrize('p,r', [(2, 2), (2, 3), (3, 1)])
@pytest.mark.parametrize('h', [1, 2, 3, 4, 5])
def test_char_poly_matches_brute(p, r, h):
    # det(x I - A) expanded over the bivariate ring by brute force;
    # rows of the result are coefficients of x^0..x^h
    cfg = field(p, r)
    for trial in range(5):
        rng = np.random.default_rng([53, p, r, h, trial])
        a = _rand_pm(rng, cfg.q, h, 2)
        got = PM.pm_char_poly(a, cfg)
        assert len(got) == h + 1
        got = np.array(got)
        deg = a.shape[2]
        add, mul, neg = arrays(cfg).add, arrays(cfg).mul, arrays(cfg).neg
        # brute: polynomial entries in (x, t); index [k] is x-degree
        def bmul(u, v):
            out = np.zeros((len(u) + len(v) - 1, u.shape[1] + v.shape[1] - 1),
                           dtype=np.int64)
            for i in range(len(u)):
                for j in range(len(v)):
                    for s in range(u.shape[1]):
                        for w in range(v.shape[1]):
                            out[i + j, s + w] = add[out[i + j, s + w], mul[u[i, s], v[j, w]]]
            return out

        acc = np.zeros((h + 1, h * deg + 1), dtype=np.int64)
        for perm in itertools.permutations(range(h)):
            term = np.zeros((1, 1), dtype=np.int64)
            term[0, 0] = 1
            for i in range(h):
                if perm[i] == i:
                    ent = np.zeros((2, deg), dtype=np.int64)
                    ent[0] = neg[a[i, i]]
                    ent[1, 0] = 1
                else:
                    ent = neg[a[i, perm[i]]][None, :]
                term = bmul(term, ent)
            inv = sum(1 for x in range(h) for y in range(x + 1, h) if perm[x] > perm[y])
            if inv % 2:
                term = neg[term]
            acc[:term.shape[0], :term.shape[1]] = add[acc[:term.shape[0], :term.shape[1]], term]
        k = min(got.shape[1], acc.shape[1])
        assert (got[:, :k] == acc[:, :k]).all()
        assert not got[:, k:].any() and not acc[:, k:].any()
        # mod t^n it is the exact result truncated
        for n in (1, 3):
            assert PM.pm_char_poly(a, cfg, n) == _rows(got[:, :n])


@pytest.mark.parametrize('p,r', [(2, 1), (2, 2), (2, 3), (3, 2), (5, 1)])
def test_series_inverse(p, r):
    cfg = field(p, r)
    for trial in range(10):
        rng = np.random.default_rng([54, p, r, trial])
        h = int(rng.integers(1, 5))
        n = int(rng.integers(1, 8))
        a = _rand_pm(rng, cfg.q, h, 3)
        # force unit constant term
        c0 = a[:, :, 0]
        while K.rref_rows(c0.tolist(), cfg) < h:
            c0[:] = rng.integers(0, cfg.q, size=(h, h))
        inv = PM.pm_inv_mod(a, n, cfg)
        eye = _rows(np.eye(h, dtype=np.int64)[:, :, None])
        prod = PM.pm_truncate(PM.pm_mul(a, inv, cfg), n)
        assert PM.pm_trim(prod) == eye
        prod2 = PM.pm_truncate(PM.pm_mul(inv, a, cfg), n)
        assert PM.pm_trim(prod2) == eye


def test_pm_inv_mod_refusals():
    cfg = field(2, 2)
    a = np.eye(3, dtype=np.int64)[:, :, None]
    with pytest.raises(ValueError, match='need 0 <= e < n'):
        PM.pm_inv_mod(a, 0, cfg)
    with pytest.raises(TypeError):
        PM.pm_inv_mod(a, 2.0, cfg)
    a[1, :, :] = 0
    with pytest.raises(ValueError, match='singular constant term'):
        PM.pm_inv_mod(a, 3, cfg)
    assert PM.pm_inv_mod(np.eye(2, dtype=np.int64)[:, :, None], 2, cfg) == (
        ((1, 0), (0, 0)), ((0, 0), (1, 0)))


def _read_solution(rows, rank, n, h):
    # X = sum t^l·X_l from the reduced rows of solve_mod by its documented
    # layout: the pivot row of unknown l·h + j holds row j of X_l, free
    # unknowns are 0; None when a pivot lies among the right-hand columns
    x = [[[0] * n for _ in range(h)] for _ in range(h)]
    for row in rows[:rank]:
        c = next(i for i, v in enumerate(row) if v)
        if c >= n * h:
            return None
        l, j = divmod(c, h)
        for col, v in enumerate(row[n * h:]):
            x[j][col][l] = v
    return tuple(tuple(map(tuple, xr)) for xr in x)


@pytest.mark.parametrize('p,r', [(2, 1), (3, 1), (2, 2)])
def test_solve_mod_solves_the_series_system(p, r):
    # A·X = t^e·I mod t^n for e in {0, 1}, n <= 4, h <= 4: uniform A of
    # 1 to n + 1 coefficients, uniform A with a zero row in A_0, and
    # minuscule data (sample_shtuka, solvable at e = 1).  Every read-off
    # X solves the system; an unsolvable one at e = 0 has a singular A_0
    cfg = field(p, r)
    seen = set()
    for h, n, e, kind, trial in itertools.product(range(1, 5), range(1, 5), (0, 1),
                                                  ('uniform', 'zero_row', 'minuscule'), range(2)):
        if e >= n:
            continue
        rng = np.random.default_rng([61, p, r, h, n, e, trial, len(kind)])
        if kind == 'minuscule':
            a = sample_shtuka(HodgeDatum(h, int(rng.integers(0, h + 1))), cfg, rng).amat
        else:
            a = _rand_pm(rng, cfg.q, h, int(rng.integers(0, n + 1)))
            if kind == 'zero_row':
                a[int(rng.integers(0, h)), :, 0] = 0
        rows, rank = PM.solve_mod(a, n, e, cfg)
        x = _read_solution(rows, rank, n, h)
        seen.add((e, x is not None))
        if x is None:
            assert kind != 'minuscule' or e == 0
            if e == 0:
                assert K.rref_rows([[c[0] for c in row] for row in _rows(a)], cfg) < h
            continue
        want = tuple(tuple(tuple(int(i == j and k == e) for k in range(n)) for j in range(h))
                     for i in range(h))
        assert PM.pm_truncate(PM.pm_mul(a, x, cfg), n) == want, (h, n, e, kind, trial)
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


def test_solve_mod_refuses_an_exponent_outside_the_precision():
    cfg = field(2, 2)
    a = np.eye(2, dtype=np.int64)[:, :, None]
    for n, e in ((2, 2), (2, -1), (0, 0), (1, 3)):
        with pytest.raises(ValueError, match='need 0 <= e < n'):
            PM.solve_mod(a, n, e, cfg)


def test_frob_entrywise():
    cfg = field(2, 3)
    rng = np.random.default_rng(56)
    a = _rand_pm(rng, cfg.q, 3, 2)
    assert PM.pm_frob(a, cfg, 1) == _rows(arrays(cfg).frb[a])
    assert PM.pm_frob(a, cfg, -1) == _rows(arrays(cfg).frbi[a])
    assert PM.pm_frob(a, cfg, 3) == _rows(a)
    assert PM.pm_frob(PM.pm_frob(a, cfg, 2), cfg, -2) == _rows(a)


def test_from_element_shift():
    from pkernels.affine import Element
    x = Element((1, -2), (2, 1))
    a, s = PM.pm_from_element(x)
    assert s == 2  # cleared the most negative exponent
    # row i carries exponent lam_i: row 1 in column 2, row 2 in column 1
    assert a[0][1][1 + 2] == 1 and a[1][0][-2 + 2] == 1
    assert sum(c != 0 for row in a for e in row for c in e) == 2
    y = Element((0, 1), (1, 2))
    b, sy = PM.pm_from_element(y)
    assert sy == 0
    assert b[0][0][0] == 1 and b[1][1][1] == 1


# -------------------------------------------------------- lattice keys

def test_lattice_key_separates_and_normalizes():
    cfg = field(2, 1)
    n = 6
    e = np.eye(2, dtype=np.int64)[:, :, None]
    t1 = np.zeros((2, 2, 2), dtype=np.int64)
    t1[0, 0, 1] = 1
    t1[1, 1, 0] = 1          # diag(t, 1)
    t2 = np.zeros((2, 2, 2), dtype=np.int64)
    t2[0, 0, 0] = 1
    t2[1, 1, 1] = 1          # diag(1, t)
    k1 = lattice_key(t1, cfg, n)
    k2 = lattice_key(t2, cfg, n)
    assert k1 != k2
    assert lattice_key(e, cfg, n) != k1

    # right multiplication by a unimodular matrix preserves the lattice
    rng = np.random.default_rng(57)
    for trial in range(15):
        h = int(rng.integers(2, 4))
        m = np.zeros((h, h, 3), dtype=np.int64)
        for j in range(h):
            m[j, j, int(rng.integers(0, 3))] = 1
        u = random_iwahori(h, cfg, 3, rng)
        prod = PM.pm_truncate(PM.pm_mul(m, u, cfg), n)
        assert lattice_key(PM.pm_truncate(m, n), cfg, n) == lattice_key(prod, cfg, n)


@pytest.mark.parametrize('pr', [(3, 1), (2, 2)])
def test_lattice_key_is_right_iwahori_invariant(pr):
    # m·i·Lambda_j = m·Lambda_j for i in I, for a coset g·x of an orbit
    # count and for any m mod t^n
    cfg = field(*pr)
    rng = np.random.default_rng([58, cfg.q])
    for trial in range(30):
        h = int(rng.integers(2, 4))
        if trial % 2:
            x = Element(tuple(int(v) for v in rng.integers(-1, 2, size=h)),
                        tuple(int(v) for v in rng.permutation(h) + 1))
            m, _ = PM.pm_from_element(x)
            n = len(m[0][0])
            m = PM.pm_mul(random_iwahori(h, cfg, n, rng), m, cfg)
        else:
            n = int(rng.integers(1, 4))
            m = rng.integers(0, cfg.q, size=(h, h, n), dtype=np.int64)
        i = random_iwahori(h, cfg, n, rng)
        assert (lattice_key(PM.pm_truncate(m, n), cfg, n)
                == lattice_key(PM.pm_truncate(PM.pm_mul(m, i, cfg), n), cfg, n)), trial


@pytest.mark.parametrize('pr', [(2, 1), (2, 2)])
def test_lattice_key_precision_n_is_exact(pr):
    # m = t^s·x has m·Lambda_j ⊇ t^N O^h, N = max(lam)+s+1: keys of g·m and
    # g'·m agree mod t^N exactly when they agree mod t^(N+3)
    cfg = field(*pr)
    rng = np.random.default_rng([83, cfg.q])
    outcomes = set()
    for trial in range(60):
        h = int(rng.integers(2, 4))
        lam = tuple(int(v) for v in rng.integers(-1, 2, size=h))
        x = Element(lam, tuple(int(v) for v in rng.permutation(h) + 1))
        m, _ = PM.pm_from_element(x)
        n = len(m[0][0])
        g1 = np.array(random_iwahori(h, cfg, n + 3, rng))
        g2 = np.array(random_iwahori(h, cfg, n + 3, rng))
        if trial % 3:
            # g2 ≡ g1 mod t^(N-2+trial%3): agreement mod t^N fixes the coset,
            # agreement mod t^(N-1) may not
            depth = n - 2 + trial % 3
            g2[:, :, :depth] = g1[:, :, :depth]
        a, b = PM.pm_mul(g1, m, cfg), PM.pm_mul(g2, m, cfg)
        same = [lattice_key(PM.pm_truncate(a, p), cfg, p)
                == lattice_key(PM.pm_truncate(b, p), cfg, p) for p in (n, n + 3)]
        assert same[0] == same[1], (x, trial)
        outcomes.add(same[0])
    assert outcomes == {True, False}


def _tensor(entry, shape):
    m = np.zeros(shape, dtype=np.int64)
    m.flat[0] = entry
    return m


@pytest.mark.parametrize('m', [_tensor(-1, (2, 2, 1)), _tensor(3, (2, 2, 1)),
                               _tensor(5, (2, 2, 1)), _tensor(0, (2, 3, 1)),
                               _tensor(0, (2, 2)), [[[0], [0]], [[0]]],
                               [[[0], [0, 0]], [[0], [0]]]],
                         ids=['negative', 'q', 'above-q', 'not-square', 'no-coefficients',
                              'ragged-rows', 'ragged-coefficients'])
def test_lattice_key_refuses_malformed_input(m):
    # over F_3 an entry -1 would read as 2, and 5 would index past the tables
    with pytest.raises(ValueError):
        lattice_key(m, field(3, 1), 1)


def test_lattice_key_rank():
    # the parts j' >= j of the key have h·n - v(det m) - j rows in all
    # when t^n O^h ⊂ m·Lambda_j
    cfg = field(2, 2)
    x = Element((2, 0, -1), (2, 3, 1))
    m, s = PM.pm_from_element(x)
    h, n = 3, len(m[0][0])
    for p in (n, n + 2):
        keys = lattice_key(m, cfg, p)
        ranks = [len(k) // (h * p) for k in keys]       # one byte per entry
        assert [sum(ranks[j:]) for j in range(h)] == [h * p - (x.v_det() + h * s) - j
                                                      for j in range(h)]
