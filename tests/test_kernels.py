"""The kernels of ``pkernels._kernels`` against plain loop forms.

The loop forms below are the reference implementation: one scalar table
lookup per operation, in the order the definitions read.  Every kernel
must agree with its loop form exactly.  The references for the packed
charpoly are a division-free Laplace DP over row subsets and a
Hessenberg reduction on lists of coefficients.
"""

import itertools

import numpy as np
import pytest

from conftest import arrays
from pkernels import _kernels as K
from pkernels.shtuka import field
from pkernels.shtuka import polymat as PM

# F_3 and F_9 are the fields where NEG is not the identity
FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
# for the packed series: odd p, r up to 8, and the largest primes
PACKED_FIELDS = FIELDS + [(5, 1), (7, 2), (3, 5), (13, 1), (251, 1), (2, 8)]


def _rand(rng, q, shape):
    a = rng.integers(0, q, size=shape, dtype=np.int64)
    a.setflags(write=False)     # a kernel that writes to its input raises
    return a


def _run(kernel, shape, c, *arrays):
    """kernel(*arrays, c), checked for what callers rely on: a new
    C-contiguous int64 array of the documented shape (bt1 and lattice_key
    key subspaces by its tobytes()), and every array operand left
    unchanged."""
    before = [np.copy(x) for x in arrays]
    out = kernel(*arrays, c)
    got = out[0] if kernel is K.gf_rref else out
    assert got.dtype == np.int64 and got.flags.c_contiguous and got.flags.writeable
    assert got.shape == shape
    assert all(np.array_equal(x, y) for x, y in zip(arrays, before))
    return out


def _sizes(rng, k, hi, edges, trials):
    """``trials`` random k-tuples of sizes in 1..hi-1, then the edge cases."""
    return [tuple(rng.integers(1, hi, size=k)) for _ in range(trials)] + list(edges)


# ------------------------------------------------ reference loop forms

def _gf_matmul_loops(a, b, add, mul):
    n, k = a.shape
    m = b.shape[1]
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            acc = 0
            for l in range(k):
                acc = add[acc, mul[a[i, l], b[l, j]]]
            out[i, j] = acc
    return out


def _gf_rref_loops(mat, add, mul, neg, inv):
    # full reduced row echelon form; returns (reduced copy, rank)
    m = mat.copy()
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = -1
        for i in range(r, nrows):
            if m[i, c] != 0:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            for j in range(ncols):
                tmp = m[r, j]
                m[r, j] = m[p, j]
                m[p, j] = tmp
        s = inv[m[r, c]]
        for j in range(ncols):
            m[r, j] = mul[s, m[r, j]]
        for i in range(nrows):
            if i != r and m[i, c] != 0:
                f = neg[m[i, c]]
                for j in range(ncols):
                    m[i, j] = add[m[i, j], mul[f, m[r, j]]]
        r += 1
    return m, r


def _gf_conv2_loops(a, b, add, mul):
    # 2D polynomial product; 1D is the (1, n) special case
    ax, ay = a.shape
    bx, by = b.shape
    out = np.zeros((ax + bx - 1, ay + by - 1), dtype=np.int64)
    for i in range(ax):
        for j in range(ay):
            c = a[i, j]
            if c == 0:
                continue
            for k in range(bx):
                for l in range(by):
                    if b[k, l] != 0:
                        out[i + k, j + l] = add[out[i + k, j + l], mul[c, b[k, l]]]
    return out


def _polymat_mul_loops(a, b, add, mul):
    # (n, k, da) x (k, m, db) -> (n, m, da+db-1) coefficient tensors
    n, kk, da = a.shape
    m = b.shape[1]
    db = b.shape[2]
    out = np.zeros((n, m, da + db - 1), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            for l in range(kk):
                for s in range(da):
                    c = a[i, l, s]
                    if c == 0:
                        continue
                    for t in range(db):
                        if b[l, j, t] != 0:
                            out[i, j, s + t] = add[out[i, j, s + t], mul[c, b[l, j, t]]]
    return out


def _subset_dp_plan(h):
    """Index plan of the Laplace DP over row subsets of an h x h matrix.

    Per column c: targets (masks with c+1 bits), and for each target T
    and each row i in T, the source mask T without i, the row i, and the
    parity of #{i' in T: i' > i}, the sign of inserting row i into the
    source set.  Shapes (m,) and (m, c+1).
    """
    plan = []
    for c in range(h):
        targets = [T for T in range(1 << h) if bin(T).count('1') == c + 1]
        rows = [[i for i in range(h) if T >> i & 1] for T in targets]
        srcs = [[T ^ (1 << i) for i in r] for T, r in zip(targets, rows)]
        odd = [[bin(T >> (i + 1)).count('1') % 2 == 1 for i in r]
               for T, r in zip(targets, rows)]
        plan.append((np.array(targets), np.array(srcs), np.array(rows),
                     np.array(odd, dtype=bool)))
    return plan


def _charpoly_subset_dp(a, n, add, mul, neg):
    """det(X·I - a) mod t^n as an (h+1, n) array cp[x_deg, t_deg].

    Entry (i, c) of X·I - a is a bivariate polynomial ent[i, c] (index
    [x_deg, t_deg]).  After column c, dp[S] is the signed sum over the
    ways to place columns 0..c in the rows S of the product of the chosen
    entries; column c extends every S by every row i outside it.
    """
    h = a.shape[0]
    xlen = h + 1
    ent = np.zeros((h, h, 2, a.shape[2]), dtype=np.int64)
    ent[:, :, 0] = neg[a]
    ent[np.arange(h), np.arange(h), 1, 0] = 1
    dp = np.zeros((1 << h, xlen, n), dtype=np.int64)
    dp[0, 0, 0] = 1
    et = min(ent.shape[3], n)
    for c, (targets, srcs, rows, odd) in enumerate(_subset_dp_plan(h)):
        src = dp[srcs]
        coef = ent[rows, c, :, :et]
        coef[odd] = neg[coef[odd]]
        acc = np.zeros_like(src)
        for x in range(2):
            for s in range(et):
                k = coef[:, :, x, s]
                if k.any():
                    acc[:, :, x:, s:] = add[acc[:, :, x:, s:], mul[
                        k[:, :, None, None], src[:, :, :xlen - x, :n - s]]]
        out = acc[:, 0]
        for j in range(1, c + 1):
            out = add[out, acc[:, j]]
        dp[targets] = out
    return dp[-1]


def _series_inv_lists(u, n, ADD, MUL, NEG, INV):
    # inverse mod t^n of the unit power series u (u[0] != 0), n coefficients
    u0inv = INV[u[0]]
    c = MUL[u0inv]
    out = [u0inv] + [0] * (n - 1)
    for k in range(1, n):
        acc = 0
        for j in range(1, min(k, len(u) - 1) + 1):
            acc = ADD[acc][MUL[u[j]][out[k - j]]]
        out[k] = c[NEG[acc]]
    return out


def _charpoly_lists(a, n, add, mul, neg, inv):
    """det(X·I - a) mod t^n as an (h+1, n) array cp[x_deg, t_deg], on
    entries that are lists of n coefficients, one table lookup per
    coefficient product: a Hessenberg reduction by similarities over
    O/t^n, each pivot an entry of least valuation (its unit part inverted
    mod t^n), then the division-free Hessenberg recurrence (Cohen, GTM
    138, 2.2.9)."""
    ADD, MUL, NEG, INV = add.tolist(), mul.tolist(), neg.tolist(), inv.tolist()
    h = a.shape[0]

    def fma(acc, f, g):
        # acc + f·g, truncated to the length of acc (g is at least as long)
        acc = list(acc)
        for s, c in enumerate(f):
            if c:
                mc = MUL[c]
                acc[s:] = [ADD[x][mc[y]] for x, y in zip(acc[s:], g)]
        return acc

    def val(f):
        return next((s for s, c in enumerate(f) if c), n)

    zero = [0] * n
    pad = [0] * max(0, n - a.shape[2])
    m = [[e[:n] + pad for e in row] for row in a.tolist()]
    for k in range(h - 2):
        v, p = min((val(m[i][k]), i) for i in range(k + 1, h))
        if v == n:
            continue
        if p != k + 1:
            m[k + 1], m[p] = m[p], m[k + 1]
            for row in m:
                row[k + 1], row[p] = row[p], row[k + 1]
        piv = m[k + 1]
        uinv = _series_inv_lists(piv[k][v:], n - v, ADD, MUL, NEG, INV)
        for i in range(k + 2, h):
            row = m[i]
            if not any(row[k]):
                continue
            mult = fma([0] * (n - v), row[k][v:], uinv)
            negm = [NEG[c] for c in mult]
            row[k] = zero
            for j in range(k + 1, h):
                row[j] = fma(row[j], negm, piv[j])
            for r in m:
                r[k + 1] = fma(r[k + 1], mult, r[i])
    one = [1] + zero[1:]
    polys = [[one]]
    for c in range(h):
        prev = polys[c]
        negd = [NEG[x] for x in m[c][c]]
        q = [fma(zero, negd, prev[0])]
        q += [fma(prev[j - 1], negd, prev[j]) for j in range(1, c + 1)]
        q.append(prev[c])
        prod = one
        for i in range(1, c + 1):
            prod = fma(zero, prod, m[c - i + 1][c - i])
            if not any(prod):
                break
            coef = [NEG[x] for x in fma(zero, m[c - i][c], prod)]
            for j, pj in enumerate(polys[c - i]):
                q[j] = fma(q[j], coef, pj)
        polys.append(q)
    return np.array(polys[h], dtype=np.int64).reshape(h + 1, n)


@pytest.mark.parametrize('p,r', FIELDS)
def test_matmul_paths_agree(p, r):
    c = field(p, r)
    rng = np.random.default_rng([11, p, r])
    edges = [(0, 3, 4), (3, 4, 0), (4, 0, 3), (1, 1, 1), (5, 1, 5), (16, 16, 16)]
    for n, k, m in _sizes(rng, 3, 7, edges, 20):
        a = _rand(rng, c.q, (n, k))
        b = _rand(rng, c.q, (k, m))
        got = _run(K.gf_matmul, (n, m), c, a, b)
        assert (got == _gf_matmul_loops(a, b, arrays(c).add, arrays(c).mul)).all()


@pytest.mark.parametrize('p,r', FIELDS)
def test_rref_paths_agree(p, r):
    c = field(p, r)
    rng = np.random.default_rng([12, p, r])
    # up to 16 columns, the width of a lattice key's span
    edges = [(0, 5), (0, 0), (5, 0), (1, 1), (6, 1), (1, 6), (16, 16), (12, 16), (16, 9)]
    for n, m in _sizes(rng, 2, 17, edges, 20):
        a = _rand(rng, c.q, (n, m))
        m1, r1 = _run(K.gf_rref, (n, m), c, a)
        t = arrays(c)
        m2, r2 = _gf_rref_loops(a.copy(), t.add, t.mul, t.neg, t.inv)
        assert r1 == r2
        assert (m1 == m2).all()


def test_rref_of_sparse_low_rank():
    # lattice-key spans are sparse and rank-deficient: zero columns,
    # repeated rows and rows that eliminate to zero
    c = field(3, 2)
    for trial in range(20):
        rng = np.random.default_rng([17, trial])
        n, m, rank = rng.integers(1, 17), rng.integers(1, 17), rng.integers(0, 5)
        basis = _rand(rng, c.q, (rank, m)) * (rng.random((rank, m)) < 0.3)
        a = K.gf_matmul(_rand(rng, c.q, (n, rank)), basis, c)
        m1, r1 = _run(K.gf_rref, (n, m), c, a)
        t = arrays(c)
        m2, r2 = _gf_rref_loops(a.copy(), t.add, t.mul, t.neg, t.inv)
        assert r1 == r2 <= rank
        assert (m1 == m2).all()


def test_rref_postconditions():
    for (p, r), trial in itertools.product([(2, 2), (3, 2)], range(30)):
        c = field(p, r)
        rng = np.random.default_rng([13, p, r, trial])
        n, m = rng.integers(1, 9, size=2)
        a = _rand(rng, c.q, (n, m))
        red, rank = K.gf_rref(a, c)
        assert 0 <= rank <= min(n, m)
        # idempotent
        red2, rank2 = K.gf_rref(red, c)
        assert rank2 == rank and (red2 == red).all()
        # nonzero rows have unit pivots with cleared columns
        pivots = []
        for i in range(n):
            nz = np.nonzero(red[i])[0]
            if i < rank:
                j = nz[0]
                assert red[i, j] == 1
                col = red[:, j].copy()
                col[i] = 0
                assert not col.any()
                pivots.append(j)
            else:
                assert nz.size == 0
        assert pivots == sorted(pivots)


@pytest.mark.parametrize('p,r', FIELDS)
def test_conv2_matches_brute(p, r):
    c = field(p, r)
    rng = np.random.default_rng([14, p, r])
    edges = [(1, 1, 1, 1), (1, 5, 16, 1), (1, 3, 9, 4), (0, 3, 2, 2), (3, 1, 1, 4)]
    for ax, ay, bx, by in _sizes(rng, 4, 5, edges, 12):
        a = _rand(rng, c.q, (ax, ay))
        b = _rand(rng, c.q, (bx, by))
        got = _run(K.gf_conv2, (ax + bx - 1, ay + by - 1), c, a, b)
        want = np.zeros((ax + bx - 1, ay + by - 1), dtype=np.int64)
        for i in range(ax):
            for j in range(ay):
                for k in range(bx):
                    for l in range(by):
                        want[i + k, j + l] = arrays(c).add[want[i + k, j + l],
                                                           arrays(c).mul[a[i, j], b[k, l]]]
        assert (got == want).all()
        assert (_gf_conv2_loops(a, b, arrays(c).add, arrays(c).mul) == want).all()


@pytest.mark.parametrize('p,r', FIELDS)
def test_polymat_mul_paths_agree(p, r):
    c = field(p, r)
    rng = np.random.default_rng([15, p, r])
    edges = [(0, 2, 3, 2, 2), (2, 0, 3, 2, 2), (2, 3, 0, 1, 3), (1, 1, 1, 1, 1),
             (4, 1, 4, 5, 1), (3, 3, 3, 1, 6), (16, 2, 16, 2, 3)]
    for n, k, m, da, db in _sizes(rng, 5, 6, edges, 12):
        a = _rand(rng, c.q, (n, k, da))
        b = _rand(rng, c.q, (k, m, db))
        got = _run(K.polymat_mul, (n, m, da + db - 1), c, a, b)
        assert (got == _polymat_mul_loops(a, b, arrays(c).add, arrays(c).mul)).all()


# F_2, F_3, F_4 and F_8: the fields of the oracle's list kernels
LIST_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3)]


@pytest.mark.parametrize('p,r', LIST_FIELDS)
def test_list_rref_matches_wrapper_and_loops(p, r):
    # rref_rows does the work of gf_rref on lists of rows, in place; it
    # replaces rows and never writes into one, so tuple rows work too
    c = field(p, r)
    rng = np.random.default_rng([21, p, r])
    edges = [(0, 0), (0, 5), (5, 0), (1, 1), (4, 1), (1, 4), (8, 12), (12, 8)]
    for n, m in _sizes(rng, 2, 10, edges, 15):
        a = _rand(rng, c.q, (n, m))
        t = arrays(c)
        want, rank = _gf_rref_loops(a.copy(), t.add, t.mul, t.neg, t.inv)
        red, rank2 = K.gf_rref(a, c)
        for rows in (a.tolist(), [tuple(row) for row in a.tolist()]):
            objects = list(rows)
            assert K.rref_rows(rows, c) == rank == rank2, (n, m)
            assert [list(row) for row in rows] == want.tolist() == red.tolist(), (n, m)
            assert [list(row) for row in objects] == a.tolist()     # no row written into


@pytest.mark.parametrize('p,r', LIST_FIELDS)
def test_list_polymat_matches_wrapper_and_loops(p, r):
    # polymat_rows does the work of polymat_mul on nested lists; the
    # shapes with no rows, no inner dimension or no columns come from the
    # counts it is given, not from the lists
    c = field(p, r)
    rng = np.random.default_rng([22, p, r])
    edges = [(0, 2, 3, 2, 2), (2, 0, 3, 2, 2), (2, 3, 0, 1, 3), (0, 0, 0, 1, 1),
             (1, 1, 1, 1, 1), (3, 3, 3, 3, 2), (4, 4, 4, 2, 2)]
    for n, k, m, da, db in _sizes(rng, 5, 5, edges, 12):
        a = _rand(rng, c.q, (n, k, da))
        b = _rand(rng, c.q, (k, m, db))
        dc = da + db - 1
        want = _polymat_mul_loops(a, b, arrays(c).add, arrays(c).mul)
        got = K.polymat_rows(a.tolist(), b.tolist(), m, dc, c)
        assert len(got) == n and all(len(row) == m * dc for row in got)
        assert np.array(got, dtype=np.int64).reshape(n, m, dc).tolist() == want.tolist()
        assert (K.polymat_mul(a, b, c) == want).all()
        # a wider dc pads every entry with zeros
        wide = K.polymat_rows(a.tolist(), b.tolist(), m, dc + 2, c)
        padded = np.zeros((n, m, dc + 2), dtype=np.int64)
        padded[:, :, :dc] = want
        assert np.array(wide, dtype=np.int64).reshape(n, m, dc + 2).tolist() == padded.tolist()


@pytest.mark.parametrize('p,r', LIST_FIELDS)
def test_list_matmul_matches_wrapper_and_loops(p, r):
    c = field(p, r)
    rng = np.random.default_rng([23, p, r])
    for n, k, m in _sizes(rng, 3, 6, [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1)], 12):
        a = _rand(rng, c.q, (n, k))
        b = _rand(rng, c.q, (k, m))
        want = _gf_matmul_loops(a, b, arrays(c).add, arrays(c).mul)
        got = K.matmul_rows(a.tolist(), b.tolist(), m, c)
        assert np.array(got, dtype=np.int64).reshape(n, m).tolist() == want.tolist()
        assert (K.gf_matmul(a, b, c) == want).all()


def test_polymat_mul_is_poly_product():
    # entrywise check against scalar polynomial arithmetic over F_4
    c = field(2, 2)
    rng = np.random.default_rng(16)
    a = _rand(rng, c.q, (3, 2, 4))
    b = _rand(rng, c.q, (2, 3, 3))
    got = K.polymat_mul(a, b, c)
    for i in range(3):
        for j in range(3):
            acc = np.zeros(6, dtype=np.int64)
            for l in range(2):
                for s in range(4):
                    for t in range(3):
                        acc[s + t] = arrays(c).add[acc[s + t],
                                                   arrays(c).mul[a[i, l, s], b[l, j, t]]]
            assert (got[i, j] == acc).all()


def _charpoly_input(rng, q, h, n, kind):
    """(h, h, deg) input of one kind: dense, or with a zero pattern."""
    deg = int(rng.integers(2 if kind in T_KINDS else 1, n + 2))
    a = rng.integers(0, q, size=(h, h, deg), dtype=np.int64)
    if kind == 'hessenberg':
        # every column already zero below the subdiagonal
        a[np.tril_indices(h, -2)] = 0
    elif kind == 'skip':
        # column 0 zero below the diagonal
        a[1:, 0] = 0
    elif kind == 'swap':
        # the entry of least valuation in column 0 sits in the last row
        a[1:, 0] = 0
        a[h - 1, 0, 0] = 1
        if deg > 1:
            a[1, 0, 1] = 1
    elif kind == 'valuation':
        # column 0 divisible by t below the diagonal
        a[1:, 0, 0] = 0
    elif kind == 'nilpotent':
        # strictly lower triangular, conjugated by a permutation
        a[np.triu_indices(h)] = 0
        perm = rng.permutation(h)
        a = a[perm][:, perm]
    elif kind == 'divisible':
        # some rows and some columns divisible by t
        a[rng.random(h) < 0.5, :, 0] = 0
        a[:, rng.random(h) < 0.5, 0] = 0
    elif kind == 'column':
        # one column zero below the diagonal, the subdiagonal entry included
        k = int(rng.integers(0, h - 1))
        a[k + 1:, k] = 0
    elif kind == 'nilpotent_mod_t':
        # strictly lower triangular mod t, conjugated by a permutation
        a[np.triu_indices(h) + (0,)] = 0
        perm = rng.permutation(h)
        a = a[perm][:, perm]
    return np.ascontiguousarray(a)


def _charpoly_packed(a, n, c):
    """K.charpoly on a packed (h, h, deg) tensor, unpacked to the (h+1, n)
    array of the references; checks that it leaves its input as it was.
    A Packing holds at least one term, so h = 0 packs with terms = 1."""
    h = a.shape[0]
    lay = K.Packing(c, n, max(h, 1))
    m = [[lay.pack(e) for e in row] for row in a.tolist()]
    before = [list(row) for row in m]
    cp = K.charpoly(m, lay)
    assert m == before and len(cp) == h + 1
    return np.array([lay.unpack(x) for x in cp], dtype=np.int64).reshape(h + 1, n)


# the kinds with a t-divisible part, built with at least two coefficients
T_KINDS = ('divisible', 'column', 'nilpotent_mod_t')
CHARPOLY_KINDS = ('hessenberg', 'skip', 'swap', 'valuation', 'nilpotent') + T_KINDS


@pytest.mark.parametrize('p,r', PACKED_FIELDS)
def test_charpoly_matches_subset_dp(p, r):
    # every kind (cycling with h + n) at h <= 8 and n <= 6, and at every
    # h >= 2 each kind with a t-divisible part at one n >= 2
    c = field(p, r)
    rng = np.random.default_rng([18, p, r])
    for h in range(9):
        for n in range(1, 7):
            kinds = ['dense', CHARPOLY_KINDS[(h + n) % len(CHARPOLY_KINDS)] if h >= 3 else 'dense']
            if h >= 2 and n == 2 + h % 5:
                kinds += T_KINDS
            for kind in kinds:
                a = _charpoly_input(rng, c.q, h, n, kind)
                a.setflags(write=False)
                got = _charpoly_packed(a, n, c)
                want = _charpoly_subset_dp(a, n, arrays(c).add, arrays(c).mul, arrays(c).neg)
                assert (got == want).all(), (h, n, kind)
                if kind.startswith('nilpotent'):
                    # X^h mod t, and X^h exactly when nilpotent
                    assert got[h, 0] == 1 and not got[:h, 0].any()
                if kind == 'nilpotent':
                    assert not got[:h].any() and not got[h, 1:].any()


@pytest.mark.parametrize('p,r', PACKED_FIELDS)
def test_packed_charpoly_matches_lists(p, r):
    # every input kind (cycling with h + n) at h <= 8 and n <= 12; GF(243),
    # GF(251) and GF(256) see every third (h, n), since the list form pays
    # per table lookup
    c = field(p, r)
    rng = np.random.default_rng([19, p, r])
    step = 3 if c.q > 200 else 1
    for h in range(9):
        for n in range(1 + h % step, 13, step):
            kinds = CHARPOLY_KINDS
            for kind in ('dense', kinds[(h + n) % len(kinds)] if h >= 3 else 'dense'):
                a = _charpoly_input(rng, c.q, h, n, kind)
                a.setflags(write=False)
                got = _charpoly_packed(a, n, c)
                t = arrays(c)
                want = _charpoly_lists(a, n, t.add, t.mul, t.neg, t.inv)
                assert (got == want).all(), (h, n, kind)


def _series_product(f, g, c):
    # f·g mod t^len(f) by table lookups
    out = [0] * len(f)
    for i, x in enumerate(f):
        for j, y in enumerate(g[:len(f) - i]):
            out[i + j] = int(arrays(c).add[out[i + j], arrays(c).mul[x, y]])
    return out


@pytest.mark.parametrize('p,r', PACKED_FIELDS)
def test_packed_reduction_worst_case(p, r):
    # red at the largest slot values it promises to take: `terms` products
    # of series whose every digit is p - 1, each negated by a factor p - 1,
    # plus two normalised ints, at the largest terms and n the oracle uses
    # (h = 10, n = 11 at (10, 5)) and beyond.  The second addend has every
    # digit 1, so that for odd p the slot values are odd: a layout one bit
    # too narrow then corrupts the quotient it takes mod p.
    c = field(p, r)
    ones = sum(p ** j for j in range(r))
    for n, terms in ((1, 1), (6, 4), (12, 10)):
        lay = K.Packing(c, n, terms)
        full = [c.q - 1] * n              # index q - 1: every digit p - 1
        x = lay.pack(full)
        got = lay.red(terms * (p - 1) * x * x + x + lay.pack([ones] * n))
        # terms·(p-1) is an element of the prime field: its index mod p
        sq = _series_product(full, full, c)
        want = [int(arrays(c).add[arrays(c).add[arrays(c).mul[terms * (p - 1) % p, s], f], ones])
                for s, f in zip(sq, full)]
        assert lay.unpack(got) == want, (n, terms)
        assert got == lay.pack(want)


@pytest.mark.parametrize('p,r', PACKED_FIELDS)
def test_series_matmul_matches_polymat_mul(p, r):
    # (n, k) x (k, m) mod t^len at terms = k, the most it may sum
    c = field(p, r)
    rng = np.random.default_rng([21, p, r])
    for n, k, m, length in ((1, 1, 1, 1), (2, 3, 1, 4), (3, 3, 3, 6), (1, 5, 2, 9)):
        lay = K.Packing(c, length, k)
        a, b = _rand(rng, c.q, (n, k, length)), _rand(rng, c.q, (k, m, length))
        want = K.polymat_mul(a, b, c)[:, :, :length]
        got = K.series_matmul(PM.pack_matrix(a, lay), PM.pack_matrix(b, lay), lay)
        assert got == PM.pack_matrix(want, lay), (n, k, m, length)
    with pytest.raises(ValueError, match='cannot hold'):
        K.series_matmul([[1, 1]], [[1], [1]], K.Packing(c, 1, 1))


def test_packing_refuses_empty_precision_or_terms():
    # n = 0 would pack every series to 0 and terms = 0 hold no product;
    # pm_char_poly reaches Packing with its n as given
    c = field(2, 2)
    a = np.eye(3, dtype=np.int64)[:, :, None]
    for n, terms in ((0, 3), (3, 0), (-1, 3), (3, -2)):
        with pytest.raises(ValueError, match='n >= 1 and terms >= 1'):
            K.Packing(c, n, terms)
    with pytest.raises(ValueError, match='n >= 1 and terms >= 1'):
        PM.pm_char_poly(a, c, 0)
    cp = PM.pm_char_poly(a, c, 1)
    assert len(cp) == 4 and all(len(x) == 1 for x in cp)


@pytest.mark.parametrize('p,r', PACKED_FIELDS)
def test_pack_table_puts_digit_j_in_slot_j(p, r):
    c = field(p, r)
    for n, terms in ((1, 1), (3, 2), (7, 5), (12, 10)):
        lay = K.Packing(c, n, terms)
        assert lay._pack == [sum((e // p ** j % p) << j * lay.W for j in range(r))
                             for e in range(c.q)], (n, terms)


@pytest.mark.parametrize('p,r', PACKED_FIELDS)
def test_packed_series_round_trip(p, r):
    c = field(p, r)
    rng = np.random.default_rng([20, p, r])
    for n in (1, 2, 5, 12):
        lay = K.Packing(c, n, 3)
        for _ in range(5):
            f = rng.integers(0, c.q, size=n + 2).tolist()
            x = lay.pack(f)
            assert lay.unpack(x) == f[:n]
            assert lay.val(x) == next((s for s, e in enumerate(f[:n]) if e), n)
