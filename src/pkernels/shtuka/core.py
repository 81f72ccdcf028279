r"""Matrix models over k[[t]]: a local datum is a nonsingular polynomial
matrix A acting sigma-semilinearly; its residue mod t carries the F of a
residue module, with V recovered from t·A^{-1}.

The Newton polygon is computed exactly from the characteristic
polynomial cp(X) = det(X - B) of the r-fold twisted product
B = A·sigma(A)···sigma^{r-1}(A) (lower convex hull of coefficient
valuations, slopes divided by r).

Working mod t^(r·d+1), d = v(det A), is exact.  cp is monic, so its
point at X^h is (h, 0), and v(cp_0) = v(det B) = r·d, so its point at
X^0 is (0, r·d).  The lower hull lies on or below the chord between
them, whose height never exceeds r·d; a coefficient of valuation above
r·d lies above that chord and is no vertex of the hull.  Reducing mod
t^(r·d+1) drops exactly those coefficients and leaves every other
valuation as it was, so the hull, and the polygon, do not change.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from ..affine import Element, in_minuscule_double_coset
from ..errors import ConventionError
from ..polygons import NewtonPolygon, polygon_from_slopes, x_of_polygon
from .bt1 import Bt1Module
from .gf import FieldConfig
from . import polymat as PM

__all__ = [
    'LocalShtuka', 'shtuka_from_element', 'minimal_shtuka', 'sample_shtuka',
    'random_unimodular', 'bt1_of', 'newton_polygon_of',
    'sigma_conjugate_sample',
]


@dataclass(frozen=True)
class LocalShtuka:
    """Polynomial matrix amat with v_t(det) = dimension; witness, when
    present, is a pair (U1, U2) of unimodular tensors with
    amat = U1 · diag(t^mu) · U2 for the minuscule mu."""

    cfg: FieldConfig
    amat: np.ndarray
    witness: tuple = None

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.amat, dtype=np.int64))
        object.__setattr__(self, 'amat', a)
        a.setflags(write=False)

    @property
    def h(self) -> int:
        return self.amat.shape[0]

    @cached_property
    def det(self) -> np.ndarray:
        """det(amat) as a 1D coefficient vector; computed once, since
        amat is read-only."""
        det = PM.pm_det(self.amat, self.cfg)
        det.setflags(write=False)
        return det

    @cached_property
    def dimension(self) -> int:
        v = PM.poly_valuation(self.det)
        if v is None:
            raise ValueError('singular matrix')
        return v


def shtuka_from_element(x: Element, cfg: FieldConfig) -> LocalShtuka:
    """Monomial datum of a minuscule affine element, with the standard
    permutation witness A = P_v · diag(t^mu) · (P_v^{-1} P_u)."""
    h = x.h
    d = x.v_det()
    if not in_minuscule_double_coset(x, h, d):
        raise ValueError('element is not minuscule')
    from .. import weyl
    ones = [i for i in range(1, h + 1) if x.lam[i - 1] == 1]
    zeros = [i for i in range(1, h + 1) if x.lam[i - 1] == 0]
    v = tuple(ones + zeros)
    u1 = np.zeros((h, h), dtype=np.int64)
    for j in range(1, h + 1):
        u1[v[j - 1] - 1, j - 1] = 1
    w = weyl.compose(weyl.inverse(v), x.perm)
    u2 = np.zeros((h, h), dtype=np.int64)
    for j in range(1, h + 1):
        u2[w[j - 1] - 1, j - 1] = 1
    amat, s = PM.pm_from_element(x)
    if s != 0:
        raise ConventionError('minuscule element %r has a negative exponent' % (x,))
    return LocalShtuka(cfg, amat, witness=(PM.pm_from_const(u1), PM.pm_from_const(u2)))


def minimal_shtuka(P: NewtonPolygon, cfg: FieldConfig) -> LocalShtuka:
    return shtuka_from_element(x_of_polygon(P), cfg)


def random_unimodular(h: int, cfg: FieldConfig, deg: int, rng) -> np.ndarray:
    """Random element of GL_h(O) mod t^deg: invertible constant term,
    uniform higher coefficients."""
    q = cfg.q
    while True:
        c0 = rng.integers(0, q, size=(h, h), dtype=np.int64)
        try:
            PM.gf_mat_inv(c0, cfg)
            break
        except ValueError:
            continue
    a = np.zeros((h, h, max(deg, 1)), dtype=np.int64)
    a[:, :, 0] = c0
    if deg > 1:
        a[:, :, 1:] = rng.integers(0, q, size=(h, h, deg - 1), dtype=np.int64)
    return a


def sample_shtuka(hd, cfg: FieldConfig, deg: int = 2, seed=None, rng=None) -> LocalShtuka:
    """U1 · diag(t^mu) · U2 with random unimodular factors of the given
    coefficient degree."""
    if rng is None:
        rng = np.random.default_rng(seed)
    h, d = hd.height, hd.dimension
    u1 = random_unimodular(h, cfg, deg, rng)
    u2 = random_unimodular(h, cfg, deg, rng)
    mid = PM.pm_zeros(h, h, 2)
    for i in range(h):
        mid[i, i, 1 if i < d else 0] = 1
    amat = PM.pm_trim(PM.pm_mul(PM.pm_mul(u1, mid, cfg), u2, cfg))
    return LocalShtuka(cfg, amat, witness=(u1, u2))


def bt1_of(sh: LocalShtuka) -> Bt1Module:
    """Residue module: F is A mod t; V is (t·A^{-1}) mod t.

    With a witness the V-matrix is assembled from the factors; without
    one it is read off the adjugate exactly: for det A = t^d·(unit u),
    t·A^{-1} = adj(A)·u^{-1}·t^{1-d}, whose residue is coefficient d-1
    of adj(A)·(u^{-1} mod t^d); lower coefficients must vanish.
    """
    cfg = sh.cfg
    h = sh.h
    fbar = PM.pm_coeff(sh.amat, 0)
    d = sh.dimension
    if sh.witness is not None:
        u1, u2 = sh.witness
        u1i0 = PM.gf_mat_inv(PM.pm_coeff(u1, 0), cfg)
        u2i0 = PM.gf_mat_inv(PM.pm_coeff(u2, 0), cfg)
        # t·A^{-1} = U2^{-1}·diag(t^{1-mu})·U1^{-1}; mod t the diagonal is mu itself
        mid = np.zeros((h, h), dtype=np.int64)
        for i in range(d):
            mid[i, i] = 1
        vbar = PM.gf_mat_mul(PM.gf_mat_mul(u2i0, mid, cfg), u1i0, cfg)
    elif d == 0:
        vbar = np.zeros((h, h), dtype=np.int64)
    else:
        adj = PM.pm_adjugate(sh.amat, cfg)
        unit = sh.det[d:]
        uinv = PM.poly_series_inv(unit, d, cfg)
        w = PM.pm_truncate(PM.pm_poly_scale(adj, uinv, cfg), d)
        for k in range(d - 1):
            if PM.pm_coeff(w, k).any():
                raise ConventionError('adjugate residue has a low-order term; '
                                      'datum is not minuscule')
        vbar = PM.pm_coeff(w, d - 1)
    # both routes compute t*A^{-1} mod t; the stored matrix is for the
    # sigma^{-1}-semilinear operator, so A*frb(vmat) = tI forces one twist
    vbar = cfg.frbi[vbar]
    Z = Bt1Module(cfg, fbar, vbar).check()
    if Z.dimension != d:
        raise ConventionError('residue module has dimension %d, datum has %d'
                              % (Z.dimension, d))
    return Z


def _lower_hull_slopes(points):
    """points: list of (i, v) with i ascending; returns per-unit slopes of
    the lower convex hull across the full i range."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y1 - y2, x2 - x1)
        slopes.extend([s] * (x2 - x1))
    return slopes


def newton_polygon_of(sh: LocalShtuka) -> NewtonPolygon:
    """Exact Newton polygon of the sigma-semilinear action of amat,
    computed mod t^(r·d+1) (see the module docstring)."""
    cfg = sh.cfg
    h = sh.h
    n = cfg.r * sh.dimension + 1
    a = PM.pm_truncate(sh.amat, n)
    b = a
    for k in range(1, cfg.r):
        b = PM.pm_truncate(PM.pm_mul(b, PM.pm_frob(a, cfg, k), cfg), n)
    cp = PM.pm_char_poly(b, cfg, n)
    pts = []
    for i in range(h + 1):
        v = PM.poly_valuation(cp[i])
        if v is not None:
            pts.append((i, v))
    if pts[0][0] != 0 or pts[-1][0] != h:
        raise ValueError('singular matrix')
    slopes = [s / cfg.r for s in _lower_hull_slopes(pts)]
    slopes.reverse()
    P = polygon_from_slopes(slopes)
    if P.height != h or P.dimension != sh.dimension:
        raise ConventionError('Newton polygon %s does not have height %d and dimension %d'
                              % (P, h, sh.dimension))
    return P


def sigma_conjugate_sample(x: Element, cfg: FieldConfig, trials: int, seed=0,
                           deg: int = 2) -> Counter:
    """Multiset of Iwahori classes of g·X·sigma(g)^{-1} over random
    g in GL_h(O), X the monomial matrix of x.

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
        g = random_unimodular(h, cfg, deg, rng)
        gsi = PM.pm_inv_mod(PM.pm_frob(g, cfg, 1), n, cfg)
        m = PM.pm_truncate(PM.pm_mul(PM.pm_mul(g, xm, cfg), gsi, cfg), n)
        out[iwahori_class_of(m, cfg, shift=s, expected_vdet=vdet)] += 1
    return out
