r"""The extended affine Weyl group of GL_h.

An element is a pair (lam, u) of a translation vector lam in Z^h and a
permutation u, representing the monomial matrix with entry ε^{lam[u(j)]}
at position (u(j), j) and zeros elsewhere; as a product of matrices this
is diag(ε^lam) · P_u.  The group law in these coordinates is

    (lam, u) · (mu, v) = (lam + u·mu, u∘v),      (u·mu)_{u(j)} = mu_j,

which the tests validate against exact Laurent-polynomial matrix products.

Lengths are for the Iwahori subgroup I = preimage of the *upper*
triangular matrices under reduction mod ε.  The closed formula below is a
convention-sensitive implementation detail; the binding contract is that
it agrees with BFS word length over the affine generators and with the
coset-index [I : I ∩ xIx^{-1}] oracle, both exercised in the tests.

The reduction at the bottom decides, by length arithmetic alone, which
Newton strata meet a double coset I·x·I.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import weyl
from .errors import ConventionError, ResourceLimitError

__all__ = [
    'Element', 'identity', 'from_perm', 'translation', 'simple_reflection',
    'omega', 'length', 'reduced_decomposition', 'in_minuscule_double_coset',
    'translation_conjugate', 'newton_point', 'newton_strata',
]


@dataclass(frozen=True)
class Element:
    """Extended affine Weyl group element (lam, u) = diag(ε^lam)·P_u.

    >>> x = Element((1, 0), (2, 1))
    >>> x.h
    2
    >>> x.v_det()
    1
    """
    lam: tuple
    perm: tuple

    def __post_init__(self):
        if len(self.lam) != len(self.perm) or not weyl.is_permutation(self.perm):
            raise ValueError('malformed element: lam=%r perm=%r' % (self.lam, self.perm))

    @property
    def h(self) -> int:
        return len(self.perm)

    def v_det(self) -> int:
        """Valuation of the determinant: sum of the exponents."""
        return sum(self.lam)

    def entry_valuations(self):
        """The h x h matrix of entry valuations, None at the zeros.

        >>> Element((0, 1), (2, 1)).entry_valuations()
        ((None, 0), (1, None))
        """
        n = self.h
        rows = [[None] * n for _ in range(n)]
        for j in range(1, n + 1):
            i = self.perm[j - 1]
            rows[i - 1][j - 1] = self.lam[i - 1]
        return tuple(tuple(r) for r in rows)

    def __mul__(self, other: 'Element') -> 'Element':
        if self.h != other.h:
            raise ValueError('size mismatch: %d != %d' % (self.h, other.h))
        acted = [0] * self.h
        for j in range(self.h):
            acted[self.perm[j] - 1] = other.lam[j]
        lam = tuple(a + b for a, b in zip(self.lam, acted))
        return Element(lam, weyl.compose(self.perm, other.perm))

    def inverse(self) -> 'Element':
        ui = weyl.inverse(self.perm)
        lam = tuple(-self.lam[self.perm[i] - 1] for i in range(self.h))
        return Element(lam, ui)

    def __pow__(self, k: int) -> 'Element':
        out = identity(self.h)
        step = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = out * step
        return out

    def to_dict(self) -> dict:
        return {'perm': list(self.perm), 'lam': list(self.lam)}


def identity(h: int) -> Element:
    return Element((0,) * h, weyl.identity(h))


def from_perm(u) -> Element:
    """Embed a finite permutation with zero translation part."""
    return Element((0,) * len(u), tuple(u))


def translation(lam) -> Element:
    """The pure translation ε^lam.

    >>> translation((1, 0)) * translation((0, 2)) == translation((1, 2))
    True
    """
    return Element(tuple(lam), weyl.identity(len(lam)))


def simple_reflection(h: int, i: int) -> Element:
    """The simple reflection s_i, 0 <= i <= h-1; s_0 is the affine one.

    s_0 swaps basis directions 1 and h and carries exponents -1 and +1, so
    that its matrix has ε at (h, 1) and ε^{-1} at (1, h).

    >>> simple_reflection(2, 0)
    Element(lam=(-1, 1), perm=(2, 1))
    >>> simple_reflection(3, 2).perm
    (1, 3, 2)
    """
    if not 0 <= i <= h - 1 or h < 2:
        raise ValueError('no simple reflection s_%d at h=%d' % (i, h))
    if i == 0:
        lam = (-1,) + (0,) * (h - 2) + (1,)
        return Element(lam, weyl.transposition(h, 1, h))
    return from_perm(weyl.transposition(h, i, i + 1))


def omega(h: int) -> Element:
    """The length-zero generator with v(det) = 1.

    It normalizes the Iwahori subgroup (validated by the coset-index
    oracle) and conjugates s_i to s_{i-1 mod h}.

    >>> omega(3)
    Element(lam=(0, 0, 1), perm=(3, 1, 2))
    >>> length(omega(4))
    0
    """
    if h == 1:
        return Element((1,), (1,))
    lam = (0,) * (h - 1) + (1,)
    perm = (h,) + tuple(range(1, h))
    return Element(lam, perm)


# memo for length(); cleared when full (a full h = 6 sweep stores 3191)
_LENGTH_CACHE_MAX = 1 << 15
_length_cache = {}


def length(x: Element) -> int:
    """Iwahori-Matsumoto length: log_q [I : I ∩ xIx^{-1}].

    >>> length(identity(2)), length(translation((1, 0))), length(omega(2))
    (0, 1, 0)
    """
    v = _length_cache.get(x)
    if v is not None:
        return v
    ui = weyl.inverse(x.perm)
    lam = x.lam
    total = 0
    for a, b in itertools.permutations(range(x.h), 2):
        c = lam[a] - lam[b]
        if ui[a] > ui[b]:
            c += 1
        if a > b:
            c -= 1
        if c > 0:
            total += c
    if len(_length_cache) >= _LENGTH_CACHE_MAX:
        _length_cache.clear()
    _length_cache[x] = total
    return total


def reduced_decomposition(x: Element):
    """Write x = omega^k · s_{i_1} ··· s_{i_l} with l = length(x).

    Returns (k, [i_1, ..., i_l]).  Greedy: repeatedly strip a left descent.
    If the residual after length(x) strips is not a power of omega the
    length convention is broken somewhere, which must not pass silently.

    >>> reduced_decomposition(omega(2))
    (1, [])
    >>> k, word = reduced_decomposition(Element((1, 0), (2, 1)))
    >>> (k, len(word))
    (1, 2)
    """
    h = x.h
    k = x.v_det()
    rest = omega(h) ** (-k) * x
    word = []
    refs = [simple_reflection(h, i) for i in range(h)] if h >= 2 else []
    while length(rest) > 0:
        for i, s in enumerate(refs):
            if length(s * rest) < length(rest):
                word.append(i)
                rest = s * rest
                break
        else:
            raise ConventionError('no descent found at positive length: %r' % (rest,))
    if rest != identity(h):
        raise ConventionError('residual not an omega-power: %r' % (rest,))
    return k, word


def in_minuscule_double_coset(x: Element, h: int, d: int) -> bool:
    """Whether x lies in W ε^μ W for μ = (1^d, 0^{h-d}): all entry
    exponents in {0, 1} and exactly d ones.

    >>> in_minuscule_double_coset(translation((2, 0)), 2, 1)
    False
    >>> in_minuscule_double_coset(Element((0, 1), (2, 1)), 2, 1)
    True
    """
    if x.h != h:
        raise ValueError('size mismatch')
    return all(v in (0, 1) for v in x.lam) and x.v_det() == d


def translation_conjugate(x: Element, lam) -> Element:
    """ε^{-lam} · x · ε^{lam}, computed directly on the exponents."""
    t = translation(lam)
    return t.inverse() * x * t


# ------------------------------------------------------------- reduction

def newton_point(x: Element) -> tuple:
    """ν(x), the Newton point of x as ascending slopes.

    x^n is a translation for n the order of the permutation, so each
    cycle contributes the average of lam over it, once per member.

    >>> newton_point(Element((0, 1), (2, 1)))
    (Fraction(1, 2), Fraction(1, 2))
    """
    seen = set()
    slopes = []
    for j in range(1, x.h + 1):
        cycle = []
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = x.perm[j - 1]
        if cycle:
            slopes += [Fraction(sum(x.lam[i - 1] for i in cycle), len(cycle))] * len(cycle)
    return tuple(sorted(slopes))


def newton_strata(x: Element, memo: dict = None, limit: int = None) -> tuple:
    """B(x), the Newton points whose stratum meets I·x·I, by the
    Deligne–Lusztig reduction (He, Ann. Math. 2014; He–Nie, Compositio
    2014).

    The class of x under length-preserving conjugation by s_0, ..., s_{h-1}
    is walked.  If some y in it has length(s·y·s) = length(y) - 2, then
    B(x) = B(s·y·s) ∪ B(s·y).  Otherwise x has minimal length in its
    conjugacy class and B(x) = {ν(x)}.

    Conjugation by omega need not be walked: omega has length 0,
    normalises I and conjugates s_i to s_{i-1 mod h}, so
    length(s·ω y ω⁻¹·s) = length(s'·y·s') with s' = ω⁻¹ s ω, and the
    omega-conjugate of the s-walk from y is the s-walk from ω y ω⁻¹.  A
    length drop is found with omega exactly when it is found without.

    Returns (points, explored): points maps each Newton point to the
    minimal-length element at which the reduction reached it, and explored
    counts the elements of the reduction tree.  Calls that share a memo
    dict share their subtrees; the answers do not depend on it.  Raises
    ResourceLimitError when a tree exceeds ``limit`` elements.

    >>> sorted(newton_strata(Element((1, 0), (2, 1)))[0])
    [(Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 2), Fraction(1, 2))]
    """
    h = x.h
    refs = [simple_reflection(h, i) for i in range(h)] if h > 1 else []
    return _reduce(x, {} if memo is None else memo, limit, refs)


def _reduce(x, memo, limit, refs):
    done = memo.get(x)
    if done is not None:
        return done
    ell = length(x)
    walked = [x]
    seen = {x}
    for y in walked:
        for s in refs:
            z = s * y * s
            ell_z = length(z)
            if ell_z < ell:
                points, n_sys = _reduce(z, memo, limit, refs)
                more, n_sy = _reduce(s * y, memo, limit, refs)
                points = {**more, **points}
                done = (points, len(walked) + n_sys + n_sy)
                break
            if ell_z == ell and z not in seen:
                seen.add(z)
                walked.append(z)
        if done is not None:
            break
        if limit is not None and len(walked) > limit:
            raise ResourceLimitError('reduction of %r exceeds %d elements' % (x, limit))
    else:
        done = ({newton_point(x): x}, len(walked))
    if limit is not None and done[1] > limit:
        raise ResourceLimitError('reduction of %r exceeds %d elements' % (x, limit))
    memo[x] = done
    return done
