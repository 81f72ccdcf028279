"""Hot numerical kernels: table-driven finite-field linear algebra.

Field elements are int64 indices into precomputed tables (see shtuka.gf):
ADD and MUL are (q, q) tables, NEG and INV are (q,) tables.  Matrices and
coefficient tensors are int64 arrays of indices.

Each kernel is a row-at-a-time loop over Python lists: it reads its
operands and the tables with ``tolist()`` (``MUL[c]`` is the row of
multiples of c), makes each row operation one list comprehension, skips
zero multipliers, and returns a new C-contiguous int64 array.  The
oracle's matrices are small (a residue module's preimage stack has at
most 2h columns, a lattice key's span h·n), and at those sizes numpy's
per-call dispatch costs more than the arithmetic.  Vectorized numpy wins
on dense inputs from about 16 columns for gf_rref and about 6 rows for
polymat_mul (README, Performance).  charpoly works on entries that are
truncated power series, lists of n coefficients, and series_inv inverts
one of them.  tests/test_kernels.py checks every kernel against plain
loop forms, and charpoly against a division-free DP over row subsets.
"""

import numpy as np

# Recorded in the environment line of perfbench/run.py; always False now
# that the kernels have one form.
USE_NUMBA = HAVE_NUMBA = False


def _array(rows, shape):
    # reshape keeps the shape of inputs with a zero-length axis
    return np.array(rows, dtype=np.int64).reshape(shape)


def gf_matmul(a, b, add, mul):
    ADD, MUL = add.tolist(), mul.tolist()
    n, m = a.shape[0], b.shape[1]
    bl = b.tolist()
    out = []
    for arow in a.tolist():
        acc = [0] * m
        for c, brow in zip(arow, bl):
            if c:
                mc = MUL[c]
                acc = [ADD[x][mc[y]] for x, y in zip(acc, brow)]
        out.append(acc)
    return _array(out, (n, m))


def gf_rref(mat, add, mul, neg, inv):
    """Full reduced row echelon form; returns (reduced copy, rank)."""
    ADD, MUL, NEG, INV = add.tolist(), mul.tolist(), neg.tolist(), inv.tolist()
    m = mat.tolist()
    nrows, ncols = mat.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for p in range(r, nrows):
            if m[p][c]:
                break
        else:
            continue
        row = m[p]
        m[p] = m[r]
        if row[c] != 1:
            ms = MUL[INV[row[c]]]
            row = [ms[y] for y in row]
        m[r] = row
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                mf = MUL[NEG[f]]
                m[i] = [ADD[x][mf[y]] for x, y in zip(m[i], row)]
        r += 1
    return _array(m, (nrows, ncols)), r


def gf_conv2(a, b, add, mul):
    """2D polynomial product; 1D is the (1, n) special case.

    The output is one flat list of rows of width w = ay+by-1, and b one
    flat list of its rows, each followed by ay-1 zeros.  The product of
    a[i, j]·x^i·y^j with b is then b shifted by i·w + j: one
    comprehension per nonzero coefficient of a.
    """
    ADD, MUL = add.tolist(), mul.tolist()
    ax, ay = a.shape
    bx, by = b.shape
    w = ay + by - 1
    pad = [0] * (ay - 1)
    flat = [y for row in b.tolist() for y in row + pad]
    out = [0] * ((ax + bx - 1) * w)
    for i, arow in enumerate(a.tolist()):
        for j, c in enumerate(arow):
            if c:
                mc = MUL[c]
                s = i * w + j
                out[s:s + bx * w] = [ADD[x][mc[y]] for x, y in zip(out[s:s + bx * w], flat)]
    return _array(out, (ax + bx - 1, w))


def polymat_mul(a, b, add, mul):
    """(n, k, da) x (k, m, db) -> (n, m, da+db-1) coefficient tensors.

    Row l of b is laid out as one flat list of m blocks of da+db-1
    coefficients, each b[l, j] followed by da-1 zeros.  The product of
    a[i, l, s]·t^s with that row is then the row shifted by s: one
    comprehension per nonzero coefficient of a, and the zeros keep each
    block's shifted coefficients inside the block.
    """
    ADD, MUL = add.tolist(), mul.tolist()
    n, _, da = a.shape
    m, db = b.shape[1], b.shape[2]
    dc = da + db - 1
    pad = [0] * (da - 1)
    flat = [[y for poly in brow for y in poly + pad] for brow in b.tolist()]
    out = []
    for arow in a.tolist():
        acc = [0] * (m * dc)
        for apoly, brow in zip(arow, flat):
            for s, c in enumerate(apoly):
                if c:
                    mc = MUL[c]
                    acc[s:] = [ADD[x][mc[y]] for x, y in zip(acc[s:], brow)]
        out.append(acc)
    return _array(out, (n, m, dc))


def series_inv(u, n, ADD, MUL, NEG, INV):
    """Inverse mod t^n of the unit power series u, as a list of n
    coefficients; u is a list with u[0] != 0, the tables are lists."""
    u0inv = INV[u[0]]
    c = MUL[u0inv]
    out = [u0inv] + [0] * (n - 1)
    for k in range(1, n):
        acc = 0
        for j in range(1, min(k, len(u) - 1) + 1):
            acc = ADD[acc][MUL[u[j]][out[k - j]]]
        out[k] = c[NEG[acc]]
    return out


def charpoly(a, n, add, mul, neg, inv):
    """det(X·I - a) mod t^n for an (h, h, deg) coefficient tensor a, as an
    (h+1, n) array cp[x_deg, t_deg].

    First a is brought to upper Hessenberg form by similarities over
    O/t^n, O = k[[t]].  For column k the pivot is an entry of least
    valuation v among rows k+1..h-1 (the column is skipped when all of
    them vanish mod t^n); its row and column are swapped into position
    k+1.  Each lower entry e of the column then has valuation >= v, so
    with u the pivot's unit part, m = (e/t^v)·u^{-1} mod t^(n-v) gives
    m·pivot = e mod t^n, and row_i -= m·row_{k+1}, col_{k+1} += m·col_i
    clears it.  The swap and each elimination are conjugations by
    matrices of GL_h(O/t^n), and det(X - P·a·P^{-1}) = det(P)·det(X - a)
    ·det(P)^{-1} over (O/t^n)[X], so the characteristic polynomial mod
    t^n does not change.  Then the division-free Hessenberg recurrence
    (Cohen, GTM 138, 2.2.9) gives it in O(h^3) series products: with p_m
    the characteristic polynomial of the leading m x m block,
    p_m = (X - H[m-1][m-1])·p_{m-1}
          - sum_i H[m-1-i][m-1]·H[m-1][m-2]···H[m-i][m-i-1]·p_{m-1-i}.
    """
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
        uinv = series_inv(piv[k][v:], n - v, ADD, MUL, NEG, INV)
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
    return _array(polys[h], (h + 1, n))
