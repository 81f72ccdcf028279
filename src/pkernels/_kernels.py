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
polymat_mul (README, Performance).  tests/test_kernels.py checks every
kernel against plain loop forms.
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
