r"""Newton polygons, Hodge data, and their standard group elements.

A Newton polygon here is a finite multiset of coprime blocks (n, m),
one block per unit-width lattice segment of slope n/(n+m), stored in
ascending slope order.  A Hodge datum is the pair (height, dimension)
cutting out the minuscule double coset W·eps^mu·W with
mu = (1^d, 0^(h-d)).
"""

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import affine, weyl
from .affine import Element
from .errors import integers

__all__ = [
    'NewtonPolygon', 'HodgeDatum', 'polygon_from_slopes', 'parse_polygon',
    'x_block', 'x_of_polygon', 'hodge_of', 'mu_and_type',
    'eo_representative', 'enumerate_polygons',
]


@dataclass(frozen=True)
class NewtonPolygon:
    """Multiset of coprime blocks (n, m), slope n/(n+m), ascending."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple([integers(n, m) for n, m in self.blocks])
        if not blocks:
            raise ValueError('empty polygon')
        for n, m in blocks:
            # gcd(0, 0) = 0 refuses the empty block
            if n < 0 or m < 0 or gcd(n, m) != 1:
                raise ValueError('block (%d, %d) is not coprime' % (n, m))
        # sort once some adjacent pair has slope n/(n+m) > n'/(n'+m'), cross-multiplied
        for (n, m), (n2, m2) in zip(blocks, blocks[1:]):
            if n * (n2 + m2) > n2 * (n + m):
                blocks = tuple(sorted(blocks, key=lambda b: Fraction(b[0], b[0] + b[1])))
                break
        object.__setattr__(self, 'blocks', blocks)
        # not fields: eq, hash and repr read the blocks alone
        object.__setattr__(self, 'height', sum(n + m for n, m in blocks))
        object.__setattr__(self, 'dimension', sum(n for n, _ in blocks))

    def slopes(self) -> tuple:
        """All h slopes with multiplicity, ascending."""
        out = []
        for n, m in self.blocks:
            out.extend([Fraction(n, n + m)] * (n + m))
        return tuple(out)

    def __str__(self) -> str:
        return format_polygon(self)

    def to_dict(self) -> dict:
        return {'blocks': [list(b) for b in self.blocks]}

    @classmethod
    def from_dict(cls, data: dict) -> 'NewtonPolygon':
        return cls(tuple(tuple(b) for b in data['blocks']))


@dataclass(frozen=True)
class HodgeDatum:
    height: int
    dimension: int

    def __post_init__(self):
        h, d = integers(self.height, self.dimension)
        object.__setattr__(self, 'height', h)
        object.__setattr__(self, 'dimension', d)
        if not (self.height >= 1 and 0 <= self.dimension <= self.height):
            raise ValueError('need 0 <= dimension <= height, height >= 1')

    def mu(self) -> tuple:
        return (1,) * self.dimension + (0,) * (self.height - self.dimension)


def polygon_from_slopes(slopes) -> NewtonPolygon:
    """Polygon whose h slopes (with multiplicity) are the given list.

    Each slope is a Fraction/int/str in [0, 1]; a slope p/q in lowest
    terms must occur with multiplicity divisible by q and contributes
    that many unit-width blocks (p, q-p).
    """
    fr = sorted(Fraction(s) for s in slopes)
    if not fr:
        raise ValueError('no slopes')
    blocks = []
    for s, grp in itertools.groupby(fr):
        if not 0 <= s <= 1:
            raise ValueError('slope %s outside [0, 1]' % (s,))
        c = len(list(grp))
        q = s.denominator
        if c % q:
            raise ValueError('slope %s has multiplicity %d, not a multiple of %d' % (s, c, q))
        blocks.extend([(s.numerator, q - s.numerator)] * (c // q))
    return NewtonPolygon(tuple(blocks))


def format_polygon(P: NewtonPolygon) -> str:
    """Canonical string: ascending slopes with xCount shorthand, e.g. "0,1/2x2".

    Spelled from the blocks: equal slopes are equal blocks, a block (n, m)
    has slope n/(n+m) in lowest terms, and (0, 1) and (1, 0) are 0 and 1."""
    parts = []
    for (n, m), grp in itertools.groupby(P.blocks):
        c = (n + m) * len(list(grp))
        tok = '%d/%d' % (n, n + m) if n and m else str(n)
        parts.append(tok if c == 1 else '%sx%d' % (tok, c))
    return ','.join(parts)


_TOKEN = re.compile(r'^([0-9]+(?:/0*[1-9][0-9]*)?)(?:x(0*[1-9][0-9]*))?$')   # no zero denominator or count


def parse_polygon(text: str) -> NewtonPolygon:
    """Inverse of format_polygon; accepts e.g. "0,1", "1/2x2", "0x2,1"."""
    slopes = []
    for tok in text.replace(' ', '').split(','):
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError('bad slope token %r' % (tok,))
        slopes.extend([Fraction(m.group(1))] * int(m.group(2) or 1))
    return polygon_from_slopes(slopes)


def x_block(n: int, m: int) -> Element:
    """Standard minuscule element of a coprime block: the h-cycle sending
    column j to row j-n (exponent 0) for j > n and to row j+m (exponent 1)
    for j <= n, h = n+m."""
    n, m = integers(n, m)
    if n < 0 or m < 0 or n + m < 1 or gcd(n, m) != 1:
        raise ValueError('block (%d, %d) is not coprime' % (n, m))
    h = n + m
    perm = tuple(j + m if j <= n else j - n for j in range(1, h + 1))
    lam = tuple(0 if i <= m else 1 for i in range(1, h + 1))
    return Element(lam, perm)


def x_of_polygon(P: NewtonPolygon) -> Element:
    """Block-diagonal juxtaposition of x_block over the blocks of P."""
    lam = []
    perm = []
    off = 0
    for n, m in P.blocks:
        xb = x_block(n, m)
        lam.extend(xb.lam)
        perm.extend(p + off for p in xb.perm)
        off += n + m
    return Element(tuple(lam), tuple(perm))


def hodge_of(P: NewtonPolygon) -> HodgeDatum:
    return HodgeDatum(P.height, P.dimension)


def mu_and_type(hd: HodgeDatum):
    """The cocharacter mu = (1^d, 0^(h-d)) and the set of simple pairs
    (i, i+1) generating its stabilizer, i.e. all but (d, d+1)."""
    h, d = hd.height, hd.dimension
    pairs = frozenset(p for p in weyl.simple_pairs(h) if p != (d, d + 1))
    return hd.mu(), pairs


def eo_representative(hd: HodgeDatum, w) -> Element:
    """The double-coset point w·w_0·w_{0,I}·eps^mu attached to a minimal
    coset representative w (raises if w is not one).

    w_0·w_{0,I} sends j to j + h - d for j <= d and to j - d otherwise, so
    u = w∘w_0∘w_{0,I} is w rotated left by h - d, and u·mu puts the
    exponent 1 at the last d values of w.

    >>> eo_representative(HodgeDatum(3, 1), (2, 3, 1))
    Element(lam=(1, 0, 0), perm=(1, 2, 3))
    """
    return affine._element(_eo_coding(hd.height, hd.dimension, _minimal_rep(hd, w)))


def _minimal_rep(hd: HodgeDatum, w) -> tuple:
    """w as a tuple of ints; raises unless it is a minimal coset
    representative of the parabolic of hd.

    I holds every simple pair but (d, d+1), so w is minimal in W_I·w
    exactly when w^{-1} descends at no pair but (d, d+1) (Björner–Brenti,
    *Combinatorics of Coxeter Groups*, §2.4): 1..d and d+1..h each occur
    in w in increasing order.  One scan checks that each value is the
    next of 1..d or the next of d+1..h.  Where it stops on v in a
    permutation, v − 1 is still to come, so w^{-1} descends at (v−1, v)."""
    h, d = hd.height, hd.dimension
    w = integers(*w)
    lo, hi = 1, d + 1
    for v in w:
        if v == lo <= d:
            lo += 1
        elif v == hi <= h:
            hi += 1
        else:
            break
    else:
        if len(w) == h:
            return w
    if len(w) == h and weyl.is_permutation(w):
        raise ValueError('w is not minimal in its coset: descent at (%d, %d)' % (v - 1, v))
    raise ValueError('w must be a permutation of size %d' % h)


def _eo_coding(h: int, d: int, w: tuple) -> tuple:
    """The flat coding lam + perm of eo_representative's point, for a w
    already known to be a minimal coset representative; nothing is checked."""
    lam = [0] * h
    for v in w[h - d:]:
        lam[v - 1] = 1
    return tuple(lam) + w[h - d:] + w[:h - d]


def enumerate_polygons(hd: HodgeDatum) -> list:
    """All Newton polygons with the given height and dimension, sorted by
    their block tuples (slope-ascending juxtapositions compare lexicographically).
    The blocks are ordered by float slope, which is exact for coprime blocks
    of this size (affine._blocks)."""
    h, d = hd.height, hd.dimension
    blocks = sorted(((n, m) for n in range(d + 1) for m in range(h - d + 1) if gcd(n, m) == 1),
                    key=lambda b: b[0] / (b[0] + b[1]))
    out = []

    def rec(start, rem_n, rem_m, acc):
        # acc is slope-ascending; rem_n and rem_m are the n and m left to fill
        if not rem_n and not rem_m:
            out.append(NewtonPolygon(acc))
            return
        for k in range(start, len(blocks)):
            n, m = blocks[k]
            if n <= rem_n and m <= rem_m:
                rec(k, rem_n - n, rem_m - m, acc + ((n, m),))

    rec(0, d, h - d, ())
    out.sort(key=lambda P: P.blocks)
    return out
