r"""Cocharacter combinatorics attached to a Newton polygon.

For a coprime block (n, m) with h = n+m, the relevant integer sets C
("beginnings") are subsets of Z hitting each residue class mod h exactly
once and closed under the step rule: every i in C has i+n in C or i-m
in C.  These biject with the cocharacters lambda enumerated blockwise
here, via C = {h+1-j+h*lambda_j}.  Profiles over a polygon are tuples of
per-block cocharacters; each determines a sorting permutation eta and a
monomial "middle" element of the affine group.
"""

import itertools
import operator
from dataclasses import dataclass

from . import affine
from .affine import Element
from .polygons import NewtonPolygon, x_block, x_of_polygon

__all__ = [
    'SemimoduleBeginning', 'CocharacterProfile', 'is_beginning',
    'enumerate_cochar_block', 'cochar_to_beginning',
    'enumerate_profiles', 'eta_of', 'middle_element',
]


def is_beginning(C, n: int, m: int) -> bool:
    """Whether C hits each class mod n+m once and is step-closed."""
    h = operator.index(n) + operator.index(m)
    C = frozenset(map(operator.index, C))
    if len(C) != h or len({c % h for c in C}) != h:
        return False
    return all(i + n in C or i - m in C for i in C)


@dataclass(frozen=True)
class SemimoduleBeginning:
    C: frozenset
    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, 'C', frozenset(map(operator.index, self.C)))
        object.__setattr__(self, 'n', operator.index(self.n))
        object.__setattr__(self, 'm', operator.index(self.m))
        if not is_beginning(self.C, self.n, self.m):
            raise ValueError('not a beginning for block (%d, %d)' % (self.n, self.m))

    def sorted_elements(self) -> tuple:
        return tuple(sorted(self.C))


def enumerate_cochar_block(n: int, m: int) -> list:
    """All cocharacters lambda of the block, normalized to min 0, lex sorted.

    Walks the single h-cycle of x_block: fixing lambda_1 = 0, each choice
    of which n columns carry the exponent-drop determines lambda by
    lambda_{u(j)} = lambda_j + kappa_{u(j)} - delta_j, where u and kappa are
    the permutation and the exponent row of x_block.  There are C(n+m, n)
    of them.
    """
    h, x = n + m, x_block(n, m)     # ValueError unless (n, m) is a coprime block
    out = set()
    for bits in itertools.combinations(range(h), n):
        delta = [0] * (h + 1)
        for b in bits:
            delta[b + 1] = 1
        lam = [None] * (h + 1)
        lam[1] = 0
        j = 1
        for _ in range(h - 1):
            nj = x.perm[j - 1]
            lam[nj] = lam[j] + x.lam[nj - 1] - delta[j]
            j = nj
        lo = min(lam[1:])
        out.add(tuple(v - lo for v in lam[1:]))
    return sorted(out)


def cochar_to_beginning(lam, n: int, m: int) -> SemimoduleBeginning:
    """C = {h+1-j + h*lambda_j : j}; validates the result."""
    h = n + m
    lam = tuple(map(operator.index, lam))
    if len(lam) != h:
        raise ValueError('cocharacter length %d != %d' % (len(lam), h))
    C = frozenset(h + 1 - j + h * lam[j - 1] for j in range(1, h + 1))
    return SemimoduleBeginning(C, n, m)


def enumerate_profiles(P: NewtonPolygon) -> list:
    """All cocharacter profiles of the polygon, lex over blocks."""
    per_block = [enumerate_cochar_block(n, m) for n, m in P.blocks]
    out = []
    for combo in itertools.product(*per_block):
        lam = tuple(itertools.chain.from_iterable(combo))
        out.append(CocharacterProfile(lam, tuple(n + m for n, m in P.blocks)))
    return out


@dataclass(frozen=True)
class CocharacterProfile:
    lam: tuple
    block_sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, 'lam', tuple(map(operator.index, self.lam)))
        object.__setattr__(self, 'block_sizes', tuple(map(operator.index, self.block_sizes)))
        if sum(self.block_sizes) != len(self.lam):
            raise ValueError('block sizes do not tile the cocharacter')


def eta_of(profile: CocharacterProfile) -> tuple:
    """Blockwise stable ascending sort permutation: within each block,
    eta(k) is the position of the k-th smallest entry (ties by position)."""
    eta = []
    off = 0
    for size in profile.block_sizes:
        vals = profile.lam[off:off + size]
        order = sorted(range(size), key=lambda t: (vals[t], t))
        eta.extend(off + t + 1 for t in order)
        off += size
    return tuple(eta)


def middle_element(profile: CocharacterProfile, P: NewtonPolygon) -> Element:
    """The monomial eta^{-1} · eps^{-lam} x_P eps^{lam} · eta.

    The inner conjugate must land in the minuscule stratum (exponents in
    {0,1}); otherwise the profile is invalid for P and a ValueError is
    raised.
    """
    if tuple(n + m for n, m in P.blocks) != profile.block_sizes:
        raise ValueError('profile does not match polygon blocks')
    x = x_of_polygon(P)
    inner = affine.translation_conjugate(x, profile.lam)
    h, d = P.height, P.dimension
    if not affine.in_minuscule_double_coset(inner, h, d):
        raise ValueError('conjugated exponents leave {0,1}: profile invalid for polygon')
    e = affine.from_perm(eta_of(profile))
    return e.inverse() * inner * e
