"""Hot numerical kernels: table-driven finite-field linear algebra.

Each kernel is one vectorized numpy routine; tests/test_kernels.py checks
them against plain loop forms.

Field elements are int64 indices into precomputed tables (see shtuka.gf):
ADD and MUL are (q, q) tables, NEG and INV are (q,) tables.  Matrices and
coefficient tensors are int64 arrays of indices.
"""

import numpy as np

# Recorded in the environment line of perfbench/run.py; always False now
# that the kernels have one form.
USE_NUMBA = HAVE_NUMBA = False


def gf_matmul(a, b, add, mul):
    n, k = a.shape
    m = b.shape[1]
    out = np.zeros((n, m), dtype=np.int64)
    for l in range(k):
        out = add[out, mul[a[:, l][:, None], b[l, :][None, :]]]
    return out


def gf_rref(mat, add, mul, neg, inv):
    """Full reduced row echelon form; returns (reduced copy, rank)."""
    m = mat.copy()
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + nz[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] = mul[inv[m[r, c]], m[r]]
        col = m[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            m[rows] = add[m[rows], mul[neg[col[rows]][:, None], m[r][None, :]]]
        r += 1
    return m, r


def gf_conv2(a, b, add, mul):
    """2D polynomial product; 1D is the (1, n) special case."""
    ax, ay = a.shape
    bx, by = b.shape
    out = np.zeros((ax + bx - 1, ay + by - 1), dtype=np.int64)
    for i in range(ax):
        for j in range(ay):
            c = a[i, j]
            if c:
                out[i:i + bx, j:j + by] = add[out[i:i + bx, j:j + by], mul[c, b]]
    return out


def polymat_mul(a, b, add, mul):
    """(n, k, da) x (k, m, db) -> (n, m, da+db-1) coefficient tensors."""
    n, kk, da = a.shape
    m = b.shape[1]
    db = b.shape[2]
    out = np.zeros((n, m, da + db - 1), dtype=np.int64)
    for l in range(kk):
        for s in range(da):
            col = a[:, l, s]
            if not col.any():
                continue
            term = mul[col[:, None, None], b[l][None, :, :]]
            out[:, :, s:s + db] = add[out[:, :, s:s + db], term]
    return out
