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
Newton strata meet a double coset I·x·I.  It runs on a private flat
coding: the tuple lam + perm of 2h ints, which keys its memo and the
length cache.  Conjugation by s_i (1 <= i < h) swaps lam_i and lam_{i+1},
swaps the positions i and i+1 of u and relabels its values i <-> i+1;
s_0 does the same for 1 <-> h and adds its exponents (window notation:
Björner–Brenti, *Combinatorics of Coxeter Groups*, §8.3).  The length of
s·y·s follows from that of y in O(h), and each leaf is keyed by its
Newton point as a block tuple in the format of NewtonPolygon.blocks.
Nothing inside the walk is validated: the public functions take and
return Elements, whose constructor checks them, and convert at the
boundary.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import weyl
from .errors import ConventionError, ResourceLimitError

__all__ = [
    'Element', 'identity', 'from_perm', 'translation', 'simple_reflection',
    'omega', 'length', 'in_minuscule_double_coset',
    'translation_conjugate', 'newton_point', 'min_length', 'newton_strata',
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
        if type(self.lam) is not tuple or type(self.perm) is not tuple:
            # stored as tuples, so an element built from to_dict() hashes
            object.__setattr__(self, 'lam', tuple(self.lam))
            object.__setattr__(self, 'perm', tuple(self.perm))
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


# memo for _length(), keyed by the flat coding; cleared when full
_LENGTH_CACHE_MAX = 1 << 15
_length_cache = {}


def length(x: Element) -> int:
    """Iwahori-Matsumoto length: log_q [I : I ∩ xIx^{-1}].

    >>> length(identity(2)), length(translation((1, 0))), length(omega(2))
    (0, 1, 0)
    """
    return _length(x.lam + x.perm)


def _length(c: tuple) -> int:
    # Σ_{a<b} |λ_a − λ_b + [u⁻¹(a) > u⁻¹(b)]|: each pair of directions
    # contributes max(0, k) + max(0, −k) to the coset index
    v = _length_cache.get(c)
    if v is not None:
        return v
    h = len(c) >> 1
    ui = [0] * h
    for j in range(h):
        ui[c[h + j] - 1] = j
    total = 0
    for a in range(h):
        la, ua = c[a], ui[a]
        for b in range(a + 1, h):
            total += abs(la - c[b] + (ua > ui[b]))
    if len(_length_cache) >= _LENGTH_CACHE_MAX:
        _length_cache.clear()
    _length_cache[c] = total
    return total


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
    """ε^{-lam} · x · ε^{lam}, as the product of three Elements."""
    t = translation(lam)
    return t.inverse() * x * t


# ------------------------------------------------------------- reduction

def _element(c: tuple) -> Element:
    """The Element of a flat coding lam + perm."""
    h = len(c) >> 1
    return Element(c[:h], c[h:])


def _cycle_sums(c: tuple) -> list:
    """(sum of lam over C, |C|) for each cycle C of the permutation."""
    h = len(c) >> 1
    seen = [False] * h
    out = []
    for j in range(h):
        s = n = 0
        while not seen[j]:
            seen[j] = True
            s += c[j]
            n += 1
            j = c[h + j] - 1
        if n:
            out.append((s, n))
    return out


def _blocks(cycles) -> tuple:
    """The Newton point of the cycle sums as blocks, in the format of
    NewtonPolygon.blocks: a cycle with sum S and length n gives
    g = gcd(S, n) blocks (S/g, (n − S)/g), sorted by slope.  Equal slopes
    are equal blocks, and float division separates the slopes of
    denominator at most h exactly, so the tuple is canonical."""
    out = []
    for s, n in cycles:
        g = math.gcd(s, n)
        out += [(s // g, (n - s) // g)] * g
    out.sort(key=lambda b: b[0] / (b[0] + b[1]))
    return tuple(out)


def newton_point(x: Element) -> tuple:
    """ν(x), the Newton point of x as ascending slopes.

    x^n is a translation for n the order of the permutation, so each
    cycle contributes the average of lam over it, once per member.

    >>> newton_point(Element((0, 1), (2, 1)))
    (Fraction(1, 2), Fraction(1, 2))
    """
    return tuple(sorted(Fraction(s, n) for s, n in _cycle_sums(x.lam + x.perm)
                        for _ in range(n)))


def min_length(x: Element) -> int:
    """The minimal length in the conjugacy class of x, in closed form.

    With S_C the sum of lam over a cycle C of the permutation,

        ℓ_min(x) = Σ_{C<C'} |S_C·|C'| − S_C'·|C|| + Σ_C (gcd(S_C, |C|) − 1).

    The first sum is ⟨ν, 2ρ⟩ = Σ_{i<j} |ν_i − ν_j|, the length of a
    straight element of the class (He, Ann. Math. 2014).  A cycle of
    slope a/b in lowest terms is a |C|/b-cycle in the Weyl group of the
    centraliser of ν, whose minimal length is |C|/b − 1 = gcd(S_C, |C|) − 1
    (He–Nie, Compositio 2014).

    >>> min_length(Element((1, 0), (2, 1))), min_length(translation((1, 0)))
    (0, 1)
    """
    return _min_length(_cycle_sums(x.lam + x.perm))


def _min_length(cycles) -> int:
    total = sum(math.gcd(s, n) - 1 for s, n in cycles)
    for (s, n), (t, m) in itertools.combinations(cycles, 2):
        total += abs(s * m - t * n)
    return total


def _root(i: int, h: int) -> tuple:
    """(a, b, e) for s_i: it swaps the directions a and b and carries the
    exponents +e at a and −e at b; (i, i+1, 0) for i ≥ 1, (h, 1, 1) for s_0."""
    return (i, i + 1, 0) if i else (h, 1, 1)


def _left(y: tuple, i: int, h: int) -> list:
    """s_i·y on the flat coding, as a list: λ_a, λ_b ← λ_b + e, λ_a − e and
    the values a ↔ b of u relabelled."""
    a, b, e = _root(i, h)
    z = list(y)
    z[a - 1], z[b - 1] = y[b - 1] + e, y[a - 1] - e
    z[y.index(a, h)], z[y.index(b, h)] = b, a
    return z


def _conj(y: tuple, i: int, h: int) -> tuple:
    """s_i·y·s_i on the flat coding: s_i·y = (λ', u'), then the positions
    a ↔ b of u' swapped, +e added to λ' at u'(a) and −e at u'(b)."""
    a, b, e = _root(i, h)
    z = _left(y, i, h)
    pa, pb = h + a - 1, h + b - 1
    z[pa], z[pb] = z[pb], z[pa]
    if e:
        z[z[pa] - 1] -= 1
        z[z[pb] - 1] += 1
    return tuple(z)


def _conj_delta(y: tuple, i: int, h: int) -> int:
    """length(s_i·y·s_i) − length(y) ∈ {−2, 0, 2}, from a few entries of
    y and the positions of the values a and b in u.

    In the sum of _length, the left factor changes only the term of the
    pair (a, b), from k to 1 − k, and the right factor only that of the
    pair (u'(a), u'(b)) of s_i·y = (λ', u'), from k to k + 1; every other
    term moves to another pair unchanged.  So nothing is built."""
    a, b, e = _root(i, h)
    k = y[a - 1] - y[b - 1] + (y.index(a, h) > y.index(b, h)) - e
    delta = -1 if k >= 1 else 1
    # u' = t∘u, so u'(a) = t(u(a)); λ' is λ but at a and b
    p, q = y[h + a - 1], y[h + b - 1]
    k = y[p - 1] - y[q - 1] + e
    if e:
        k += (p == b) - (p == a) - (q == b) + (q == a)
    p = b if p == a else a if p == b else p
    q = b if q == a else a if q == b else q
    k -= p > q
    return delta + (1 if k >= 0 else -1)


def newton_strata(x: Element, memo: dict = None, limit: int = None) -> tuple:
    """B(x), the Newton points whose stratum meets I·x·I, by the
    Deligne–Lusztig reduction (He, Ann. Math. 2014; He–Nie, Compositio
    2014).

    If length(x) = min_length(x), x has minimal length in its conjugacy
    class and B(x) = {ν(x)}.  Otherwise the class of x under
    length-preserving conjugation by s_0, ..., s_{h-1} is walked until
    some y in it has length(s·y·s) = length(y) - 2; then
    B(x) = B(s·y·s) ∪ B(s·y).  Such a y exists for every x above the
    minimum (He–Nie), so a walk that ends without one raises
    ConventionError: every call checks the closed form in that direction.

    Conjugation by omega need not be walked: omega has length 0,
    normalises I and conjugates s_i to s_{i-1 mod h}, so
    length(s·ω y ω⁻¹·s) = length(s'·y·s') with s' = ω⁻¹ s ω, and the
    omega-conjugate of the s-walk from y is the s-walk from ω y ω⁻¹.  A
    length drop is found with omega exactly when it is found without.

    Returns (points, explored): points maps each Newton point to the
    minimal-length element at which the reduction reached it, and explored
    counts the reduction tree: one per leaf, and per inner node the
    elements walked until its drop.  Calls that share a memo dict share
    their subtrees; the answers do not depend on it.  Raises
    ResourceLimitError when a tree exceeds ``limit`` elements.

    >>> sorted(newton_strata(Element((1, 0), (2, 1)))[0])
    [(Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 2), Fraction(1, 2))]
    """
    points, explored = _newton_blocks(x.lam + x.perm, {} if memo is None else memo, limit)
    # each witness is a leaf keyed by its own Newton point
    return {newton_point(y): y for y in map(_element, points.values())}, explored


def _newton_blocks(c: tuple, memo: dict, limit) -> tuple:
    """newton_strata on the flat coding: (points, explored) with each
    Newton point a block tuple and each witness a flat coding."""
    return _reduce(c, _length(c), memo, limit)


def _reduce(c, ell, memo, limit):
    done = memo.get(c)
    if done is None:
        cycles = _cycle_sums(c)
        if ell == _min_length(cycles):
            done = ({_blocks(cycles): c}, 1)
        else:
            done = _drop(c, ell, memo, limit)
        if limit is not None and done[1] > limit:
            raise ResourceLimitError('reduction of %r exceeds %d elements'
                                     % (_element(c), limit))
        memo[c] = done
    return done


def _drop(c, ell, memo, limit):
    # walk the length-preserving class of c up to its first drop; there
    # s·y·s has length ell - 2 and s·y length ell - 1
    h = len(c) >> 1
    walked = [c]
    seen = {c}
    for y in walked:
        for i in range(h if h > 1 else 0):
            delta = _conj_delta(y, i, h)
            if delta < 0:
                points, n_sys = _reduce(_conj(y, i, h), ell - 2, memo, limit)
                more, n_sy = _reduce(tuple(_left(y, i, h)), ell - 1, memo, limit)
                return {**more, **points}, len(walked) + n_sys + n_sy
            if delta == 0:
                z = _conj(y, i, h)
                if z not in seen:
                    seen.add(z)
                    walked.append(z)
        if limit is not None and len(walked) > limit:
            raise ResourceLimitError('reduction of %r exceeds %d elements'
                                     % (_element(c), limit))
    raise ConventionError('%r has length %d above the minimal length %d of its class, '
                          'but its class has no drop'
                          % (_element(c), ell, _min_length(_cycle_sums(c))))
