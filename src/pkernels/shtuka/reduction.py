r"""Iwahori reduction of nonsingular matrices over k[[t]], and Iwahori
orbit counting.

The Iwahori subgroup here is upper triangular mod t.  Every nonsingular
A factors as A = i1 · t^lam P_u · i2 with i1, i2 Iwahori; the monomial
middle is computed by valuation-pivot Gaussian elimination using only
I-legal row and column operations:

* row_i += c * row_j is legal iff (i < j and c integral) or (i > j and
  c in tO); col_j += c * col_i likewise iff (i < j and c integral) or
  (i > j and c in tO).

Each pivot is one rank-1 update.  The pivot (i0, j0) has the least
valuation v in the matrix, lies in the LAST row that holds it, and is
the LEFTMOST entry of valuation v in that row.  With c = a[:, j0] /
a[i0, j0], the update a <- a - c ⊗ a[i0] is the row operations
row_i -= c_i·row_i0 (i != i0) that clear column j0, then the column
operations that clear row i0 (they touch only row i0 once column j0 is
clear), then the removal of the pivot itself, so row i0 and column j0
end at zero and never hold a later pivot.  Every step is I-legal: rows
below i0 have no entry of valuation v, so c_i is in tO there and
integral above; in row i0 the entries left of j0 have valuation above
v, so those column multipliers are in tO and the ones to the right are
integral.  Each pivot records lam[i0] = v and perm[j0] = i0 + 1.

The matrix is packed once (the field's kept Packing, terms = 1).  The pivot's
unit u is a[i0, j0] shifted down v t-blocks; u^{-1} mod t^(N-v)
suffices, since row i0 is divisible by t^v.  Each c_i is one reduced
product, and each updated entry one reduction of x + c_i·(p-1)·y: one
negated product plus one normalised int, within the bound of terms = 1.

Working mod t^N is exact for any N > v(det): A^{-1} = adj(A)/det(A)
has valuation >= -v(det), so changing A by E with v(E) >= N multiplies
it by 1 + A^{-1}E whose correction has valuation >= 1, hence lies in
t·M_h(O), and 1 + A^{-1}E is Iwahori.  Every pivot valuation is at most
v(det) < N, so none is lost to the truncation.  N is v(det) + 1 when
the caller gives v(det), else h·(D-1) + 1 for a tensor of D
coefficients, which exceeds deg det >= v(det), so no determinant is
computed.  Pivots found mod t^N are those of the exact elimination over
O, whose pivots multiply to det up to a unit; so a singular A, or a
given v(det) that is too small, makes an active block vanish mod t^N or
the pivot valuations miss the given v(det), and both raise ValueError.

Orbit counting identifies the coset gI with its lattice chain g·Lambda_j,
Lambda_j = span(e_1, ..., e_{h-j}, t·e_{h-j+1}, ..., t·e_h).  For
m = t^s·x (pm_from_element) every entry is a power t^(lam_i+s), so
m·Lambda_j contains t^N O^h with N = max(lam)+s+1.  Every g in
I ⊂ GL_h(O) preserves t^N O^h, so each lattice of the orbit contains it
as well and is determined by its image in (O/t^N)^h: working mod t^N is
exact.  A generator 1 + c·t^a·E_ij with a >= N fixes every such lattice,
so generators of depth <= N-1 give the whole action of I.
"""

import numpy as np

from .. import _kernels as K
from ..affine import Element
from ..errors import ResourceLimitError
from .gf import FieldConfig
from . import polymat as PM

__all__ = [
    'iwahori_class_of', 'random_iwahori', 'iwahori_orbit_size', 'lattice_key',
]


def iwahori_class_of(amat, cfg: FieldConfig, shift: int = 0,
                     expected_vdet: int = None) -> Element:
    """Monomial representative of I·A·I as an affine element.

    amat is a polynomial coefficient tensor; shift=s means the actual
    matrix is t^{-s}·amat (so Laurent inputs are supported by premultiplying).
    Each of the h pivots is one rank-1 update on packed series mod t^n
    (module docstring).  Raises ValueError for a singular matrix, for
    an expected_vdet that is not v(det), and for an entry that is no
    field index (FieldConfig.array).
    """
    a = cfg.array(amat)
    h = a.shape[0]
    n = h * (a.shape[2] - 1) + 1 if expected_vdet is None else expected_vdet + 1
    lay = cfg.packing(n, 1)
    red, val, B, neg1 = lay.red, lay.val, lay.block, cfg.p - 1
    m = PM.pack_matrix(a, lay)
    perm = [None] * h
    lam = [None] * h
    for _ in range(h):
        # least valuation, then the last row, then the leftmost entry
        piv = min(((val(x), -i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x),
                  default=None)
        if piv is None:
            raise ValueError('active block vanishes mod t^%d: the matrix is singular '
                             'or v(det) >= %d' % (n, n))
        best, i0, j0 = piv[0], -piv[1], piv[2]
        shift_down = best * B
        uinv = lay.series_inv(m[i0][j0] >> shift_down, n - best)
        negrow = [neg1 * y for y in m[i0]]
        for i, row in enumerate(m):
            if row[j0] and i != i0:
                c = red((row[j0] >> shift_down) * uinv)
                m[i] = [red(x + c * y) for x, y in zip(row, negrow)]
        m[i0] = [0] * h
        perm[j0] = i0 + 1
        lam[i0] = best
    if expected_vdet is not None and sum(lam) != expected_vdet:
        raise ValueError('pivot valuations sum to %d, determinant has %d'
                         % (sum(lam), expected_vdet))
    return Element(tuple(v - shift for v in lam), tuple(perm))


def random_iwahori(h: int, cfg: FieldConfig, deg: int, rng) -> np.ndarray:
    """Random Iwahori element mod t^deg: upper triangular invertible
    constant term, strictly sub-diagonal entries divisible by t."""
    q = cfg.q
    a = rng.integers(0, q, size=(h, h, deg), dtype=np.int64)
    for i in range(h):
        a[i, i, 0] = rng.integers(1, q, dtype=np.int64)
        for j in range(i):
            a[i, j, 0] = 0
    return a


# ------------------------------------------------------ orbit counting

def lattice_key(m, cfg: FieldConfig, n: int) -> tuple:
    """Key of the coset m·I: one canonical form per lattice m·Lambda_j,
    Lambda_j = span(e_1, ..., e_{h-j}, t·e_{h-j+1}, ..., t·e_h).

    Key j is the reduced row echelon form (rows of rank, as bytes) of the
    F_q-span of t^k·c mod t^n, k < n, over the columns c of m·Lambda_j,
    each flattened to F_q^(h·n).  That span is the t-stable subspace
    (m·Lambda_j + t^n O^h) / t^n O^h, so the key determines the lattice
    exactly when t^n O^h ⊂ m·Lambda_j; its rank is then
    h·n - v(det m) - j.
    """
    h = m.shape[0]
    cols = PM.pm_pad(PM.pm_truncate(m, n), n).transpose(1, 0, 2)
    # shifted[c, k] = t^k · column c, flattened row-major over (row, coeff)
    shifted = np.zeros((h, n, h, n), dtype=np.int64)
    for k in range(n):
        shifted[:, k, :, k:] = cols[:, :, :n - k]
    shifted = shifted.reshape(h, n, h * n)
    keys = []
    for j in range(h):
        # Lambda_j takes t·c for the last j columns: drop their k = 0 rows
        span = np.concatenate([shifted[:h - j].reshape(-1, h * n),
                               shifted[h - j:, 1:].reshape(-1, h * n)])
        red, rank = K.gf_rref(span, cfg)
        keys.append(red[:rank].tobytes())
    return tuple(keys)


def _iwahori_generators(h: int, cfg: FieldConfig, depth: int):
    """Generators of I mod t^(depth+1): elementary matrices
    1 + c·t^a·E_ij, a <= depth, over an additive basis c, plus diagonal
    units."""
    gens = []
    basis = cfg.basis()
    for i in range(h):
        for j in range(h):
            lo = 0 if i < j else 1
            if i == j:
                continue
            for a in range(lo, depth + 1):
                for c in basis:
                    g = PM.pm_eye(h, a + 1)
                    g[i, j, a] = c
                    gens.append(g)
    prim = cfg.primitive()
    for i in range(h):
        if prim:
            g = PM.pm_eye(h, 1)
            g[i, i, 0] = prim
            gens.append(g)
        for a in range(1, depth + 1):
            for c in basis:
                g = PM.pm_eye(h, a + 1)
                g[i, i, a] = cfg.add[g[i, i, a], c]
                gens.append(g)
    return gens


def iwahori_orbit_size(x: Element, cfg: FieldConfig, limit: int = 1 << 22) -> int:
    """[I : I ∩ x I x^{-1}], counted as the orbit of xI in G/I under
    left multiplication by I, at precision N = max(lam) + s + 1.

    The start m = t^s·x contains t^N O^h in each m·Lambda_j (module
    docstring), so the generators of depth <= N-1 and lattice keys mod
    t^N are exact.  Raises ValueError if a key's rank shows a lattice
    that does not contain t^N O^h.
    """
    h = x.h
    start, s = PM.pm_from_element(x)
    n = start.shape[2]
    vdet = x.v_det() + h * s
    row_bytes = h * n * np.dtype(np.int64).itemsize
    want = tuple(row_bytes * (h * n - vdet - j) for j in range(h))

    def key(m):
        k = lattice_key(m, cfg, n)
        if tuple(map(len, k)) != want:
            raise ValueError('lattice does not contain t^%d O^%d' % (n, h))
        return k

    gens = _iwahori_generators(h, cfg, n - 1)
    seen = {key(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                m2 = PM.pm_truncate(PM.pm_mul(g, m, cfg), n)
                k = key(m2)
                if k not in seen:
                    seen.add(k)
                    if len(seen) > limit:
                        raise ResourceLimitError('orbit exceeds %d cosets' % limit)
                    nxt.append(m2)
        frontier = nxt
    return len(seen)
