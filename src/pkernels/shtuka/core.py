r"""Matrix models over k[[t]]: a local datum is a nonsingular minuscule
polynomial matrix A acting sigma-semilinearly; its residue mod t carries
the F of a residue module, and V = t·A^{-1} mod t and d = v(det A) come
from one linear solve mod t^2 (LocalShtuka._solve).

The Newton polygon is computed exactly from the characteristic
polynomial cp(X) = det(X - B) of the r-fold twisted product
B = A·sigma(A)···sigma^{r-1}(A) (lower convex hull of coefficient
valuations, slopes divided by r), on packed series throughout.

Working mod t^(r·d+1), d = v(det A), is exact.  cp is monic, so its
point at X^h is (h, 0), and v(cp_0) = v(det B) = r·d, so its point at
X^0 is (0, r·d).  The lower hull lies on or below the chord between
them, whose height never exceeds r·d; a coefficient of valuation above
r·d lies above that chord and is no vertex of the hull.  Reducing mod
t^(r·d+1) drops exactly those coefficients and leaves every other
valuation as it was, so the hull, and the polygon, do not change.
"""

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from ..affine import Element, in_minuscule_double_coset
from ..errors import ConventionError
from ..polygons import NewtonPolygon, x_of_polygon
from .. import _kernels as K
from .bt1 import Bt1Module, eo_classify
from .gf import FieldConfig
from . import polymat as PM

__all__ = [
    'LocalShtuka', 'shtuka_from_element', 'minimal_shtuka', 'sample_shtuka',
    'random_unimodular', 'bt1_of', 'newton_polygon_of', 'sample_cell',
    'sigma_conjugate_sample',
]


@dataclass(frozen=True)
class LocalShtuka:
    """Polynomial matrix amat, nonsingular and minuscule: amat·O^h lies
    between t·O^h and O^h, and v_t(det amat) = dimension, over the field
    cfg (polymat.square_rows)."""

    cfg: FieldConfig
    amat: tuple

    def __post_init__(self):
        object.__setattr__(self, 'amat', PM.square_rows(self.amat, self.cfg, poly=True))

    @property
    def h(self) -> int:
        return len(self.amat)

    @cached_property
    def _solve(self):
        """(t·A^{-1} mod t as a tuple of rows, v(det A)) from one rref on
        lists, computed once.

        With A = A0 + t·A1 mod t^2, A·(X0 + t·X1) = t·I mod t^2 reads
        A0·X0 = 0 and A1·X0 + A0·X1 = I, the augmented matrix
        [[A0, 0 | 0], [A1, A0 | I]].  Its coefficient block is A acting on
        (O/t^2)^h, whose kernel has dimension sum(min(mu_i, 2)) for the
        elementary divisors t^mu_i of A.  The system is solvable exactly
        when every mu_i is 0 or 1, and then X0 = t·A^{-1} mod t is unique
        (a second solution differs by t^2·A^{-1}·Y, divisible by t), so
        the first h columns are pivots, X0 is read off with the free
        unknowns at 0, and 2h - rank = sum(mu_i) = v(det A).
        """
        rows = self.amat
        h = len(rows)
        zero = [0] * h
        a0 = [[e[0] for e in row] for row in rows]
        a1 = [[e[1] if len(e) > 1 else 0 for e in row] for row in rows]
        stack = [r0 + zero + zero for r0 in a0]
        stack += [r1 + r0 + zero[:i] + [1] + zero[i + 1:] for i, (r0, r1) in enumerate(zip(a0, a1))]
        rank = K.rref_rows(stack, self.cfg)
        if rank and not any(stack[rank - 1][:2 * h]):
            raise ValueError('A·X = t·I has no solution mod t^2: the datum is '
                             'singular or not minuscule')
        return tuple(tuple(row[2 * h:]) for row in stack[:h]), 2 * h - rank

    @cached_property
    def dimension(self) -> int:
        return self._solve[1]


def shtuka_from_element(x: Element, cfg: FieldConfig) -> LocalShtuka:
    """Monomial datum of a minuscule affine element."""
    if not in_minuscule_double_coset(x, x.h, x.v_det()):
        raise ValueError('element is not minuscule')
    amat, s = PM.pm_from_element(x)
    if s != 0:
        raise ConventionError('minuscule element %r has a negative exponent' % (x,))
    return LocalShtuka(cfg, amat)


def minimal_shtuka(P: NewtonPolygon, cfg: FieldConfig) -> LocalShtuka:
    return shtuka_from_element(x_of_polygon(P), cfg)


def random_unimodular(h: int, cfg: FieldConfig, deg: int, rng) -> tuple:
    """Random element of GL_h(O) mod t^deg, as a polynomial matrix
    (polymat): invertible constant term, uniform higher coefficients.
    Raises ValueError for deg < 1."""
    deg = operator.index(deg)
    if deg < 1:
        raise ValueError('coefficient degree must be at least 1, got %d' % deg)
    q = cfg.q
    while True:
        c0 = rng.integers(0, q, size=(h, h), dtype=np.int64).tolist()
        if K.rref_rows(list(c0), cfg) == h:
            break
    if deg == 1:
        return tuple(tuple((c,) for c in row) for row in c0)
    high = rng.integers(0, q, size=(h, h, deg - 1), dtype=np.int64).tolist()
    return tuple(tuple((c, *t) for c, t in zip(row, trow)) for row, trow in zip(c0, high))


def sample_shtuka(hd, cfg: FieldConfig, deg: int = 2, seed=None, rng=None) -> LocalShtuka:
    """U1 · diag(t^mu) · U2 with random unimodular factors of the given
    coefficient degree, mu = (1^d, 0^(h-d)).  U1 · diag(t^mu) is U1 with
    its first d columns shifted up one coefficient, so one product."""
    if rng is None:
        rng = np.random.default_rng(seed)
    h, d = hd.height, hd.dimension
    u1 = random_unimodular(h, cfg, deg, rng)
    u2 = random_unimodular(h, cfg, deg, rng)
    u1mu = [[(0,) + e if j < d else e + (0,) for j, e in enumerate(row)] for row in u1]
    return LocalShtuka(cfg, PM.pm_trim(PM.pm_mul(u1mu, u2, cfg)))


def bt1_of(sh: LocalShtuka) -> Bt1Module:
    """Residue module: F is A mod t; V is t·A^{-1} mod t, the datum's one
    mod-t^2 solve (LocalShtuka._solve).

    The stored matrix is for the sigma^{-1}-semilinear operator, so
    A·frb(vmat) = t·I forces one twist.
    """
    frbi = sh.cfg.frobs[1]
    vbar, d = sh._solve
    Z = Bt1Module(sh.cfg, PM.pm_coeff(sh.amat, 0),
                  [[frbi[x] for x in row] for row in vbar]).check()
    if Z.dimension != d:
        raise ConventionError('residue module has dimension %d, datum has %d'
                              % (Z.dimension, d))
    return Z


def _polygon_of_valuations(vals, r: int) -> NewtonPolygon:
    """Newton polygon of a sigma-semilinear action from the valuations
    vals[i] = v(cp_i) (None for cp_i = 0) of the char poly cp of its
    r-fold norm: the lower convex hull of the points (i, v(cp_i)), slopes
    divided by r.

    A hull segment of width w and drop y is w slopes y/(r·w); with
    g = gcd(y, r·w) that is g/r blocks (y/g, (r·w - y)/g).
    """
    pts = [(i, v) for i, v in enumerate(vals) if v is not None]
    h = len(vals) - 1
    if pts[0][0] != 0 or pts[-1][0] != h:
        raise ValueError('singular matrix')
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    blocks = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        rw, drop = r * (x2 - x1), y1 - y2
        g = gcd(drop, rw)
        if g % r:
            raise ValueError('hull segment from %s to %s is no union of blocks'
                             % ((x1, y1), (x2, y2)))
        blocks += [(drop // g, (rw - drop) // g)] * (g // r)
    return NewtonPolygon(tuple(reversed(blocks)))


def _norm(a, lay: K.Packing, cfg: FieldConfig):
    """The r-fold norm A·sigma(A)···sigma^(r-1)(A) mod t^n of a packed
    matrix, by doubling: N_(2k) = N_k·sigma^k(N_k) and N_(k+1) =
    N_k·sigma^k(A), one step per binary digit of r, so ceil(log2 r) to
    2·floor(log2 r) products (3 for GF(256)) instead of r - 1.  Each
    entry of a product is a sum of h products reduced once
    (_kernels.series_matmul); sigma^k is the Packing's kept map."""

    def sigma(x, k):
        f = lay.frobenius(k)
        return [[f(e) for e in row] for row in x]

    b, k = a, 1
    for bit in bin(cfg.r)[3:]:
        b, k = K.series_matmul(b, sigma(b, k), lay), 2 * k
        if bit == '1':
            b, k = K.series_matmul(b, sigma(a, k), lay), k + 1
    return b


def newton_polygon_of(sh: LocalShtuka) -> NewtonPolygon:
    """Exact Newton polygon of the sigma-semilinear action of amat,
    computed mod t^(r·d+1) (see the module docstring).

    A mod t^n is packed once (the field's kept Packing of (n, h),
    FieldConfig.packing), its r-fold norm is built
    by doubling (_norm), and the valuation of each coefficient of the
    norm's characteristic polynomial is read straight off its packed int.
    """
    cfg = sh.cfg
    h = sh.h
    lay = cfg.packing(cfg.r * sh.dimension + 1, h)
    cp = K.charpoly(_norm(PM.pack_matrix(sh.amat, lay), lay, cfg), lay)
    P = _polygon_of_valuations([lay.val(c) if c else None for c in cp], cfg.r)
    if P.height != h or P.dimension != sh.dimension:
        raise ConventionError('Newton polygon %s does not have height %d and dimension %d'
                              % (P, h, sh.dimension))
    return P


def sample_cell(hd, cfg: FieldConfig, rng) -> tuple:
    """The table cell (w, P) of one datum of the stratum hd drawn from
    rng (sample_shtuka, factors mod t^2): the class of its residue module
    and its Newton polygon.  The oracle's unit of evidence."""
    sh = sample_shtuka(hd, cfg, rng=rng)
    return eo_classify(bt1_of(sh), hd.dimension), newton_polygon_of(sh)


def sigma_conjugate_sample(x: Element, cfg: FieldConfig, trials: int, seed=0) -> Counter:
    """Multiset of Iwahori classes of g·X·sigma(g)^{-1} over random
    g in GL_h(O) mod t^2, X the monomial matrix of x.

    One precision is exact: n = v(det) + 1 for the shifted matrix t^s·X.
    The reduction reads its input only mod t^n (reduction docstring), and
    g·t^s·X is polynomial, so an error in sigma(g)^{-1} mod t^n stays
    divisible by t^n after multiplying by it.
    """
    from .reduction import iwahori_class_of
    h = x.h
    xm, s = PM.pm_from_element(x)
    vdet = x.v_det() + h * s
    n = vdet + 1
    out = Counter()
    for tr in range(trials):
        rng = np.random.default_rng([seed, tr])
        g = random_unimodular(h, cfg, 2, rng)
        gsi = PM.pm_inv_mod(PM.pm_frob(g, cfg, 1), n, cfg)
        m = PM.pm_truncate(PM.pm_mul(PM.pm_mul(g, xm, cfg), gsi, cfg), n)
        out[iwahori_class_of(m, cfg, shift=s, expected_vdet=vdet)] += 1
    return out
