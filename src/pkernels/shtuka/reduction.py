r"""Iwahori reduction of nonsingular matrices over k[[t]], and Iwahori
orbit counting.

The Iwahori subgroup here is upper triangular mod t.  Every nonsingular
A factors as A = i1 · t^lam P_u · i2 with i1, i2 Iwahori; the monomial
middle is computed by valuation-pivot Gaussian elimination using only
I-legal row and column operations:

* row_i += c * row_j is legal iff (i < j and c integral) or (i > j and
  c in tO); col_j += c * col_i likewise iff (i < j and c integral) or
  (i > j and c in tO).

Each pivot clears its row and column with no division.  The pivot
(i0, j0) has the least valuation v in the matrix, lies in the LAST row
that holds it, and is the LEFTMOST entry of valuation v in that row.
Write a[i0, j0] = u·t^v, u a unit of O, and a[i, j0] = c_i·t^v for
i != i0.  The row operations row_i <- u·row_i - c_i·row_i0 (i != i0)
clear column j0 exactly, as u·c_i·t^v - c_i·u·t^v = 0; then the column
operations that clear row i0 (they touch only row i0 once column j0 is
clear), then the removal of the pivot itself, so row i0 and column j0
end at zero and never hold a later pivot.  Every step is I-legal:
scaling a row by the unit u is left multiplication by an element of
T(O) ⊂ I (Iwahori–Matsumoto 1965); rows below i0 have no entry of
valuation v, so c_i is in tO there and integral above; in row i0 the
entries left of j0 have valuation above v, so the column multipliers
a[i0, j]/a[i0, j0] are in tO there and integral to the right.  A unit
multiple of a row has the valuations of that row, so the pivots are
those of the rank-1 update a <- a - (a[:, j0]/a[i0, j0]) ⊗ a[i0].  Each
pivot records lam[i0] = v and perm[j0] = i0 + 1.

The matrix is packed once (the field's kept Packing, terms = 2).  u and
each c_i are packed entries shifted down v t-blocks, and each updated
entry is one reduction of u·x + c_i·(p-1)·y: two products, one of them
negated, within the bound of terms = 2.

Working mod t^N is exact for any N > v(det): A^{-1} = adj(A)/det(A)
has valuation >= -v(det), so changing A by E with v(E) >= N multiplies
it by 1 + A^{-1}E whose correction has valuation >= 1, hence lies in
t·M_h(O), and 1 + A^{-1}E is Iwahori.  Every pivot valuation is at most
v(det) < N, so none is lost to the truncation.  N is v(det) + 1 when
the caller gives v(det), else h·(D-1) + 1 for a matrix of D coefficients
per entry, which exceeds deg det >= v(det), so no determinant is
computed.  Pivots found mod t^N are those of the exact elimination over
O, whose pivots multiply to det up to a unit; so a singular A, or a
given v(det) that is too small, makes an active block vanish mod t^N or
the pivot valuations miss the given v(det), and both raise ValueError.

Orbit counting identifies the coset gI with its lattice chain g·Lambda_j,
Lambda_j = span(e_1, ..., e_{h-j}, t·e_{h-j+1}, ..., t·e_h).  For
m = t^s·x (pm_from_element) every entry is a power t^(lam_i+s), so
m·Lambda_j contains t^N O^h with N = max(lam)+s+1.  Every g in
I ⊂ GL_h(O) preserves t^N O^h, so each lattice of the orbit contains it
as well and is determined by its image S_j in (O/t^N)^h, the F_q-span of
t^k·c over the columns c of m·Lambda_j, of rank h·N - v(det m) - j:
working mod t^N is exact, and I acts through I mod t^N.  The affine root
subgroups 1 + c·t^a·E_ij (i < j, or i > j and a >= 1) alone reach the orbit:

1. Iwahori factorisation, I = U^-(tO)·T(O)·U^+(O) (Iwahori–Matsumoto
   1965), writes g in I as u·tau, u in the group U of the positive root
   subgroups and tau in T(O).  x is monomial, so x^{-1}·tau·x is in T(O)
   ⊂ I and g·xI = u·xI: the I-orbit of xI is its U-orbit.
2. For h >= 3 the Chevalley commutator [1 + u·t^a·E_ik, 1 + v·t^b·E_kj]
   = 1 + uv·t^(a+b)·E_ij, i, k, j distinct (Steinberg, Lectures on
   Chevalley groups, §3), builds every positive root subgroup mod t^N
   from the simple ones, (i, i+1, 0) and (h-1, 0, 1), by induction on
   the height a·h + j - i of (i, j, a): additive, positive exactly on
   the positive roots, and 1 exactly on the simple ones.  At height
   H >= 2, (i, j, a) = (i, k, b) + (k, j, a-b), both positive and lower,
   with b least and k = i+1 mod h (height 1), or k = i+2 mod h (height
   2, and H > h) when j = i+1 mod h.  u = 1 gives the basis coefficients
   and (1 + c·X)(1 + c'·X) = 1 + (c + c')·X their sums.  h = 2 has no
   third index: every positive root of depth < N is a generator.
3. I mod t^N is finite, so a generator's inverse is a power of it: the
   products of the generators alone reach the whole orbit.

A matrix is a list of its columns, each flat over (row, coefficient),
and a generator the row operation row_i += c·t^a·row_j mod t^N.
Lambda_j ⊃ Lambda_{j+1}, so S_j = S_{j+1} + <col_{h-j-1}>, and the key
of a coset is built from the rows that each S_j adds: the rref rows of
S_{h-1} (one rref), then for j = h-2, ..., 0 the residue of col_{h-j-1}
modulo the rows so far, zero at their pivots and scaled to lead with 1,
or no row when the column adds nothing.  Each row is zero at the pivots
of the rows before it, so the rows restricted to their pivots are
unitriangular, the vectors of S_j zero at every pivot of S_{j+1} form a
complement of S_{j+1}, and that residue is unique.  The parts are
therefore a function of the lattice chain, and the parts j' >= j span
S_j, so they tell cosets apart.  In an orbit count S_{h-1} has rank
h·N - v(det m) - h + 1 and each later column adds exactly one row.  A
generator product that changes no column of m is the coset of m and
gets no key.
"""

import functools
import operator

from .. import _kernels as K
from ..affine import Element
from ..errors import ResourceLimitError, integers
from .gf import FieldConfig
from . import polymat as PM

__all__ = [
    'iwahori_class_of', 'random_iwahori', 'iwahori_orbit_size', 'lattice_key',
]


def iwahori_class_of(amat, cfg: FieldConfig, shift: int = 0,
                     expected_vdet: int = None) -> Element:
    """Monomial representative of I·A·I as an affine element.

    amat is a polynomial matrix (polymat); shift=s means the actual
    matrix is t^{-s}·amat (so Laurent inputs are supported by premultiplying).
    Each of the h pivots clears its row and column on packed series mod
    t^n, with no division (module docstring).  Raises ValueError for a
    singular matrix, for an expected_vdet that is not v(det), and for an
    amat that polymat.square_rows refuses.
    """
    a = PM.square_rows(amat, cfg, poly=True)
    h = len(a)
    shift, = integers(shift)
    n = h * (len(a[0][0]) - 1) + 1 if expected_vdet is None else integers(expected_vdet)[0] + 1
    lay = cfg.packing(n, 2)
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
        u = m[i0][j0] >> shift_down
        negrow = [neg1 * y for y in m[i0]]
        for i, row in enumerate(m):
            if row[j0] and i != i0:
                c = row[j0] >> shift_down
                m[i] = [red(u * x + c * y) for x, y in zip(row, negrow)]
        m[i0] = [0] * h
        perm[j0] = i0 + 1
        lam[i0] = best
    if expected_vdet is not None and sum(lam) != expected_vdet:
        raise ValueError('pivot valuations sum to %d, determinant has %d'
                         % (sum(lam), expected_vdet))
    return Element(tuple(v - shift for v in lam), tuple(perm))


def random_iwahori(h: int, cfg: FieldConfig, deg: int, rng) -> tuple:
    """Random Iwahori element mod t^deg, as a polynomial matrix (polymat):
    upper triangular invertible constant term, strictly sub-diagonal
    entries divisible by t.  Raises ValueError for deg < 1."""
    deg, = integers(deg)
    if deg < 1:
        raise ValueError('coefficient degree must be at least 1, got %d' % deg)
    q = cfg.q
    a = rng.integers(0, q, size=(h, h, deg)).tolist()
    for i, row in enumerate(a):
        row[i][0] = rng.integers(1, q).tolist()
        for e in row[:i]:
            e[0] = 0
    return tuple(tuple(map(tuple, row)) for row in a)


# ------------------------------------------------------ orbit counting

def _columns(m, n):
    """The columns of m mod t^n, each flat over (row, coefficient)."""
    pad = (0,) * max(0, n - len(m[0][0]))
    return [[c for row in m for c in (*row[j], *pad)[:n]] for j in range(len(m))]


@functools.lru_cache(maxsize=64)
def _shifts(h, n):
    """For k = 1, ..., n-1 the map that takes a column with one zero
    appended to t^k times it."""
    zero = h * n
    return [operator.itemgetter(*[s + i - k if i >= k else zero
                                  for s in range(0, h * n, n) for i in range(n)])
            for k in range(1, n)]


def _key_rows(cols, h, n, cfg):
    """The rows that each S_j adds, j = h-1, ..., 0 (module docstring), a
    list per part: the rref of S_{h-1}, then one residue row or none."""
    padded = [col + [0] for col in cols]
    rows = [cols[0]]
    for shift in _shifts(h, n):
        rows += map(shift, padded)
    del rows[K.rref_rows(rows, cfg):]
    yield rows
    ADD, MUL, NEG, INV = cfg.tables
    pivots = [(row.index(1), row) for row in rows]
    for col in cols[1:]:
        # each row is zero at the pivots before its own, so one pass in
        # the order the rows were added clears every pivot
        for p, row in pivots:
            f = col[p]
            if f:
                mf = MUL[NEG[f]]
                col = [ADD[x][mf[y]] for x, y in zip(col, row)]
        lead = next((y for y in col if y), 0)
        if not lead:
            yield []
            continue
        if lead != 1:
            ms = MUL[INV[lead]]
            col = [ms[y] for y in col]
        pivots.append((col.index(1), col))
        yield [col]


def lattice_key(m, cfg: FieldConfig, n: int) -> tuple:
    """Key of the coset m·I: for j = 0, ..., h-1 the rows that S_j mod t^n
    adds to S_{j+1} (module docstring; S_h = 0, so part h-1 is the rref of
    S_{h-1}), as the bytes of its rows, one byte per entry.  The parts
    j' >= j span S_j; exact when t^n O^h ⊂ m·Lambda_j.  ValueError for
    n < 1 and for an m that polymat.square_rows refuses."""
    n, = integers(n)
    if n < 1:
        raise ValueError('key precision must be at least 1, got %d' % n)
    m = PM.square_rows(m, cfg, poly=True)
    return tuple(b''.join(map(bytes, rows))
                 for rows in _key_rows(_columns(m, n), len(m), n, cfg))[::-1]


def _generators(h, cfg, depth):
    """Root subgroups (i, j, a, c) = 1 + c·t^a·E_ij, c over cfg.basis(),
    that reach every coset of an I-orbit mod t^(depth+1) (module docstring)."""
    if h >= 3:
        roots = [(i, i + 1, 0) for i in range(h - 1)] + [(h - 1, 0, 1)] * (depth >= 1)
    else:
        roots = [(i, j, a) for i in range(h) for j in range(h) if i != j
                 for a in range(0 if i < j else 1, depth + 1)]
    return [(i, j, a, c) for i, j, a in roots for c in cfg.basis()]


def _row_op(cols, gen, n, cfg):
    """gen·m mod t^n on the columns of m; unchanged columns are shared."""
    i, j, a, c = gen
    ADD, mc = cfg.tables[0], cfg.tables[1][c]
    lo, hi, src = i * n + a, i * n + n, j * n
    out = []
    for col in cols:
        y = col[src:src + n - a]
        if any(y):
            col = col[:lo] + [ADD[u][mc[v]] for u, v in zip(col[lo:hi], y)] + col[hi:]
        out.append(col)
    return out


def iwahori_orbit_size(x: Element, cfg: FieldConfig, limit: int = 1 << 22) -> int:
    """[I : I ∩ x I x^{-1}], the size of the orbit of xI in G/I under I,
    counted mod t^N (module docstring).  ValueError if a key's rank shows
    a lattice that does not contain t^N O^h, or if limit is below one;
    ResourceLimitError once the orbit has more than limit cosets."""
    limit, = integers(limit)
    if limit < 1:
        raise ValueError('orbit limit must be at least 1, got %d' % limit)
    h = x.h
    start, s = PM.pm_from_element(x)
    n = len(start[0][0])
    low = h * n - x.v_det() - h * s - h + 1     # rank of S_{h-1}

    def key(cols):
        parts = list(_key_rows(cols, h, n, cfg))
        if len(parts[0]) != low or any(len(rows) != 1 for rows in parts[1:]):
            raise ValueError('lattice does not contain t^%d O^%d' % (n, h))
        return b''.join(bytes(row) for rows in parts for row in rows)

    gens = _generators(h, cfg, n - 1)
    cols = _columns(start, n)
    seen = {key(cols)}
    frontier = [cols]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                m2 = _row_op(m, g, n, cfg)
                if all(u is v for u, v in zip(m2, m)):
                    continue
                k = key(m2)
                if k not in seen:
                    seen.add(k)
                    if len(seen) > limit:
                        raise ResourceLimitError('orbit exceeds %d cosets' % limit)
                    nxt.append(m2)
        frontier = nxt
    return len(seen)
