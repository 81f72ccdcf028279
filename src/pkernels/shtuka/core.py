r"""Matrix models over k[[t]]: a local datum is a nonsingular minuscule
polynomial matrix A acting sigma-semilinearly; its residue mod t carries
the F of a residue module, and V = t·A^{-1} mod t and d = v(det A) come
from one linear solve mod t^2 (LocalShtuka._solve).

The Newton polygon is computed exactly from the characteristic
polynomial cp(X) = det(X - B) of the r-fold twisted product
B = A·sigma(A)···sigma^{r-1}(A) (lower convex hull of coefficient
valuations, slopes divided by r); sigma acts before packing.

Working mod t^(r·d+1), d = v(det A), is exact.  cp is monic, so its
point at X^h is (h, 0), and v(cp_0) = v(det B) = r·d, so its point at
X^0 is (0, r·d).  The lower hull lies on or below the chord between
them, whose height never exceeds r·d; a coefficient of valuation above
r·d lies above that chord and is no vertex of the hull.  Reducing mod
t^(r·d+1) drops exactly those coefficients and leaves every other
valuation as it was, so the hull, and the polygon, do not change.
"""

import marshal
import os
import threading
# hashlib.blake2b is this class, but importing hashlib loads OpenSSL (3.6 MB RSS)
from _blake2 import blake2b
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

from ..affine import Element, in_minuscule_double_coset
from ..errors import ConventionError, integers
from ..polygons import NewtonPolygon, x_of_polygon
from .. import _kernels as K
from .bt1 import Bt1Module, eo_classify
from .gf import FieldConfig
from . import polymat as PM

__all__ = [
    'LocalShtuka', 'shtuka_from_element', 'minimal_shtuka', 'sample_shtuka',
    'random_unimodular', 'bt1_of', 'newton_polygon_of', 'sample_cell',
    'sample_cells', 'sigma_conjugate_sample', 'KeyedStream',
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
        """(t·A^{-1} mod t as a tuple of rows, v(det A)) from
        A·X = t·I mod t^2 (polymat.solve_mod), computed once.

        Its coefficient block is A acting on (O/t^2)^h, whose kernel has
        dimension sum(min(mu_i, 2)) for the elementary divisors t^mu_i of
        A.  The system is solvable exactly when every mu_i is 0 or 1, and
        then X0 = t·A^{-1} mod t is unique (a second solution differs by
        t^2·A^{-1}·Y, divisible by t), so the first h columns are pivots,
        X0 is read off with the free unknowns at 0, and
        2h - rank = sum(mu_i) = v(det A).
        """
        h = self.h
        stack, rank = PM.solve_mod(self.amat, 2, 1, self.cfg)
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
    deg, = integers(deg)
    if deg < 1:
        raise ValueError('coefficient degree must be at least 1, got %d' % deg)
    q = cfg.q
    while True:
        c0 = rng.integers(0, q, size=(h, h)).tolist()
        if K.rref_rows(list(c0), cfg) == h:
            break
    high = rng.integers(0, q, size=(h, h, deg - 1)).tolist()
    return tuple(tuple((c, *t) for c, t in zip(row, trow)) for row, trow in zip(c0, high))


def sample_shtuka(hd, cfg: FieldConfig, rng, deg: int = 2) -> LocalShtuka:
    """U1 · diag(t^mu) · U2 with unimodular factors of the given
    coefficient degree drawn from rng, mu = (1^d, 0^(h-d)).  U1 · diag(t^mu)
    is U1 with its first d columns shifted up one coefficient, so one
    product."""
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
    """The r-fold norm A·sigma(A)···sigma^(r-1)(A) mod t^n of a polynomial
    matrix, packed in lay: r - 1 products, each entry a sum of h products
    reduced once (_kernels.series_matmul)."""
    b = PM.pack_matrix(a, lay)
    for k in range(1, cfg.r):
        b = K.series_matmul(b, PM.pack_matrix(PM.pm_frob(a, cfg, k), lay), lay)
    return b


def newton_polygon_of(sh: LocalShtuka) -> NewtonPolygon:
    """Exact Newton polygon of the sigma-semilinear action of amat,
    computed mod t^(r·d+1) (see the module docstring).

    A and its r - 1 Frobenius twists mod t^n are packed in the field's
    kept Packing of (n, h) (FieldConfig.packing), their product is the
    r-fold norm (_norm), and the valuation of each coefficient of the
    norm's characteristic polynomial is read straight off its packed int.
    """
    cfg = sh.cfg
    h = sh.h
    lay = cfg.packing(cfg.r * sh.dimension + 1, h)
    cp = K.charpoly(_norm(sh.amat, lay, cfg), lay)
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


class KeyedStream:
    """The seeded stream of a key of ints, a counter-based generator
    (Salmon et al., SC 2011): its bytes are the blake2b digests of (key, 0),
    (key, 1), ... in turn, and a draw from span = hi - lo <= 256 values is
    lo + b % span for the next byte b below 256 - 256 % span, so exactly
    uniform.  integers(lo, hi, size).tolist() answers as a numpy
    Generator's does, and the stream costs far less to set up."""

    __slots__ = ('_key', '_buf', '_pos', '_block')

    def __init__(self, *key):
        self._key = b'%r' % (integers(*key),)
        self._buf, self._pos, self._block = b'', 0, 0

    def _bytes(self, n: int) -> bytes:
        buf, pos = self._buf, self._pos
        while len(buf) - pos < n:
            buf, pos = buf[pos:] + blake2b(self._key + b'%d' % self._block).digest(), 0
            self._block += 1
        self._buf, self._pos = buf, pos + n
        return buf[pos:pos + n]

    def integers(self, lo: int, hi: int, size=None) -> '_Drawn':
        span = hi - lo
        if not 0 < span <= 256:
            raise ValueError('a stream draws from 1 to 256 values, got [%d, %d)' % (lo, hi))
        shape = () if size is None else (size,) if isinstance(size, int) else tuple(size)
        n, limit, vals = prod(shape), 256 - 256 % span, []
        while len(vals) < n:
            vals += [lo + b % span for b in self._bytes(n - len(vals)) if b < limit]
        for j in range(len(shape) - 1, 0, -1):
            m = shape[j]
            vals = [vals[i * m:i * m + m] for i in range(prod(shape[:j]))]
        return _Drawn((vals if shape else vals[0],))


class _Drawn(tuple):
    """The draws of one integers() call, held as its one item, which
    tolist() returns: nested lists of ints, or an int for no size."""

    def tolist(self):
        return self[0]


# the fewest draws worth a process: a fork, transfer and reap cost about
# as much as 200 oracle draws
MIN_SHARE = 200


def _fork_share(fn, i: int, count: int, n: int):
    """(pid, pipe) of a child that sends marshal.dumps([fn(k) for k in
    range(i, count, n)]) down the pipe and exits, 1 if that raised."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            data = marshal.dumps([fn(k) for k in range(i, count, n)])
            with open(w, 'wb') as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, 'rb')


def _keyed_map(fn, count: int) -> list:
    """[fn(k) for k in range(count)] over n processes, one per CPU of the
    affinity and at most count // MIN_SHARE (1 without os.fork or
    os.sched_getaffinity, or while a second thread runs).  Share i is
    the k = i mod n: the parent draws share 0, a forked child each other
    one, and fn's results, which marshal must write, go back in k order.
    Draw k of a KeyedStream does not depend on the process or the order,
    so the list is the serial one.  The parent redraws a share whose fork
    fails or whose child fails, so a failing draw raises here, and kills
    and reaps every child before it raises itself."""
    n = 1
    if hasattr(os, 'fork') and hasattr(os, 'sched_getaffinity') \
            and threading.active_count() == 1:
        n = max(1, min(len(os.sched_getaffinity(0)), count // MIN_SHARE))
    out = [None] * count
    children = {}
    try:
        for i in range(1, n):
            try:
                children[i] = _fork_share(fn, i, count, n)
            except OSError:
                pass
        out[0::n] = [fn(k) for k in range(0, count, n)]
        for i in range(1, n):
            keys, share = range(i, count, n), None
            if i in children:
                pid, fh = children[i]
                with fh:
                    data = fh.read()
                status = os.waitpid(pid, 0)[1]
                del children[i]
                if status == 0:
                    try:
                        share = marshal.loads(data)
                    except (EOFError, ValueError, TypeError):
                        pass
            if share is None or len(share) != len(keys):
                share = [fn(k) for k in keys]
            out[i::n] = share
    finally:
        if children:
            import signal       # only on this failure path
            for pid, fh in children.values():
                fh.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
    return out


def _cell_draw(hd, cfg: FieldConfig, seed: int, k: int) -> tuple:
    """Draw k of sample_cells."""
    return sample_cell(hd, cfg, KeyedStream(seed, hd.height, hd.dimension, k))


def sample_cells(hd, cfg: FieldConfig, seed: int, count: int):
    """The cells of count data of hd, draw k from KeyedStream(seed, h, d, k):
    the one seeded stream of calibrate, the CLI's oracle sample and
    run_consistency_suite.  Raises TypeError on a seed or count that is no
    integer."""
    seed, count = integers(seed, count)
    return (_cell_draw(hd, cfg, seed, k) for k in range(count))


def _sigma_trial(x: Element, cfg: FieldConfig, seed: int):
    """Trial tr of sigma_conjugate_sample, as a function of tr."""
    from .reduction import iwahori_class_of
    h = x.h
    xm, s = PM.pm_from_element(x)
    vdet = x.v_det() + h * s
    n = vdet + 1

    def trial(tr):
        g = random_unimodular(h, cfg, 2, KeyedStream(seed, tr))
        gsi = PM.pm_inv_mod(PM.pm_frob(g, cfg, 1), n, cfg)
        m = PM.pm_truncate(PM.pm_mul(PM.pm_mul(g, xm, cfg), gsi, cfg), n)
        return iwahori_class_of(m, cfg, shift=s, expected_vdet=vdet)
    return trial


def sigma_conjugate_sample(x: Element, cfg: FieldConfig, trials: int, seed=0) -> Counter:
    """Multiset of Iwahori classes of g·X·sigma(g)^{-1} over random
    g in GL_h(O) mod t^2, X the monomial matrix of x.

    One precision is exact: n = v(det) + 1 for the shifted matrix t^s·X.
    The reduction reads its input only mod t^n (reduction docstring), and
    g·t^s·X is polynomial, so an error in sigma(g)^{-1} mod t^n stays
    divisible by t^n after multiplying by it.  Trial tr draws g from
    KeyedStream(seed, tr).
    """
    trials, seed = integers(trials, seed)
    return Counter(map(_sigma_trial(x, cfg, seed), range(trials)))
