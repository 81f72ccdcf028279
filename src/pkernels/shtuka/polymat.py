r"""Matrices over k[t] as (rows, cols, deg+1) int64 coefficient tensors.

All entries are polynomials in t with coefficients in a FieldConfig
field; Laurent matrices are handled by callers via an explicit power of
t shift.  Exact arithmetic throughout: products grow degree, truncation
is explicit.

Work over O/t^n runs on packed series, each entry one Python int
(_kernels.Packing); pack_matrix packs a tensor at the boundary.
Determinants and characteristic polynomials share one kernel,
_kernels.charpoly: a Hessenberg reduction by similarities over O/t^n
followed by the division-free Hessenberg recurrence, O(h^3) series
products (its docstring gives the exactness argument); pm_char_poly and
pm_det unpack its result.  pm_inv_mod runs Newton's iteration on packed
matrices and unpacks once.  The Newton polygon (core.newton_polygon_of)
and the Iwahori reduction (reduction.iwahori_class_of) stay packed.
"""

import numpy as np

from .. import _kernels as K
from .gf import FieldConfig

__all__ = [
    'pm_zeros', 'pm_eye', 'pm_trim', 'pm_truncate', 'pm_pad', 'pm_shift',
    'pm_mul', 'pm_frob', 'pm_coeff', 'pm_equal', 'pm_det', 'pm_char_poly',
    'gf_mat_mul', 'gf_mat_inv', 'pm_inv_mod', 'pm_from_element',
]


def pm_zeros(h, w, deg1=1):
    return np.zeros((h, w, deg1), dtype=np.int64)


def pm_eye(h, deg1=1):
    a = pm_zeros(h, h, deg1)
    a[np.arange(h), np.arange(h), 0] = 1
    return a


def pm_trim(a):
    """Drop trailing all-zero coefficient slices (always keeps one)."""
    d = a.shape[2]
    while d > 1 and not a[:, :, d - 1].any():
        d -= 1
    return np.ascontiguousarray(a[:, :, :d])


def pm_truncate(a, n):
    """Reduce mod t^n."""
    if n < 1:
        raise ValueError('truncation order must be >= 1')
    return np.ascontiguousarray(a[:, :, :n]) if a.shape[2] > n else a.copy()


def pm_pad(a, deg1):
    if a.shape[2] >= deg1:
        return a.copy()
    out = np.zeros(a.shape[:2] + (deg1,), dtype=np.int64)
    out[:, :, :a.shape[2]] = a
    return out


def pm_shift(a, s):
    """Multiply by t^s (s >= 0)."""
    if s < 0:
        raise ValueError('negative shift')
    if s == 0:
        return a.copy()
    out = np.zeros(a.shape[:2] + (a.shape[2] + s,), dtype=np.int64)
    out[:, :, s:] = a
    return out


def pm_mul(a, b, cfg: FieldConfig):
    """Exact polynomial matrix product."""
    return K.polymat_mul(a, b, cfg.add, cfg.mul)


def pm_frob(a, cfg: FieldConfig, k: int = 1):
    """Apply the p-power Frobenius k times entrywise (k may be negative)."""
    out = a
    if k >= 0:
        for _ in range(k % cfg.r if cfg.r > 0 else k):
            out = cfg.frb[out]
    else:
        for _ in range((-k) % cfg.r):
            out = cfg.frbi[out]
    return out.copy() if out is a else out


def pm_coeff(a, i):
    if i < 0 or i >= a.shape[2]:
        return np.zeros(a.shape[:2], dtype=np.int64)
    return a[:, :, i].copy()


def pm_equal(a, b):
    d = max(a.shape[2], b.shape[2])
    return np.array_equal(pm_pad(a, d), pm_pad(b, d))


def packing(cfg: FieldConfig, n: int, terms: int) -> K.Packing:
    """The packed layout of cfg's F_q[t]/t^n for sums of up to ``terms``
    products (_kernels.Packing)."""
    return K.Packing(cfg.p, cfg.r, cfg.modulus, cfg.inv, n, terms)


def pack_matrix(a, lay: K.Packing) -> list:
    """The coefficient tensor a mod t^n as rows of normalised ints of lay."""
    return [[lay.pack(e) for e in row] for row in a.tolist()]


def gf_mat_mul(a, b, cfg: FieldConfig):
    return K.gf_matmul(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64),
                       cfg.add, cfg.mul)


def gf_mat_inv(mat, cfg: FieldConfig):
    """Inverse of a constant matrix (raises on singular input)."""
    mat = np.asarray(mat, dtype=np.int64)
    h = mat.shape[0]
    aug = np.zeros((h, 2 * h), dtype=np.int64)
    aug[:, :h] = mat
    aug[np.arange(h), h + np.arange(h)] = 1
    red, rank = K.gf_rref(aug, cfg.add, cfg.mul, cfg.neg, cfg.inv)
    if rank < h or not np.array_equal(red[:, :h], np.eye(h, dtype=np.int64)):
        raise ValueError('singular matrix')
    return np.ascontiguousarray(red[:, h:])


def pm_inv_mod(a, n, cfg: FieldConfig):
    """Inverse of a matrix with unit constant term, mod t^n, as an
    (h, h, n) tensor: Newton's x <- x·(2 - a·x) on packed matrices
    (terms = h), which doubles the precision of x each step.  Each entry
    of a product is h products reduced once (_kernels.series_matmul);
    2 - a·x is reduced as 2·u + (p-1)·v, u and v normalised, whose slots
    are below those of one negated product plus two normalised ints."""
    h = a.shape[0]
    lay = packing(cfg, n, h)
    red, neg1 = lay.red, cfg.p - 1
    am = pack_matrix(a, lay)
    x = pack_matrix(gf_mat_inv(pm_coeff(a, 0), cfg)[:, :, None], lay)
    prec = 1
    while prec < n:
        ax = K.series_matmul(am, x, lay)
        two_ax = [[red(2 * (i == j) + neg1 * v) for j, v in enumerate(row)]
                  for i, row in enumerate(ax)]
        x = K.series_matmul(x, two_ax, lay)
        prec *= 2
    return np.array([[lay.unpack(e) for e in row] for row in x],
                    dtype=np.int64).reshape(h, h, n)


def pm_from_element(x):
    """Monomial matrix of an affine element, as (tensor, shift) with the
    tensor holding t^shift times the matrix (so it is polynomial)."""
    h = x.h
    s = max(0, -min(x.lam))
    deg1 = max(x.lam) + s + 1
    a = pm_zeros(h, h, deg1)
    for j in range(1, h + 1):
        i = x.perm[j - 1]
        a[i - 1, j - 1, x.lam[i - 1] + s] = 1
    return a, s


# ---------------------------------------------------------------- dets

def pm_det(a, cfg: FieldConfig):
    """Determinant as a 1D coefficient vector."""
    h = a.shape[0]
    out = pm_char_poly(a, cfg)[0]
    if h % 2:
        out = cfg.neg[out]
    nz = np.nonzero(out)[0]
    return out[:nz[-1] + 1] if nz.size else np.array([0], dtype=np.int64)


def pm_char_poly(a, cfg: FieldConfig, n=None):
    """Coefficients of det(X*I - a) as a 2D array cp[x_deg, t_deg];
    mod t^n when n is given, else exact."""
    h = a.shape[0]
    if n is None:
        n = h * (a.shape[2] - 1) + 1
    lay = packing(cfg, n, h)
    cp = K.charpoly(pack_matrix(a, lay), lay)
    return np.array([lay.unpack(c) for c in cp], dtype=np.int64).reshape(h + 1, n)
