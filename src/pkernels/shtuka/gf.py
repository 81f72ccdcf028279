r"""Small finite fields as lookup tables.

Elements of GF(p^r) are the integers 0..p^r-1, read as base-p digit
vectors (little-endian) of coefficients against the power basis of the
lexicographically smallest monic irreducible of degree r.  All
arithmetic is table lookup on int64 numpy arrays, so field ops broadcast
over whole matrices.
"""

from dataclasses import dataclass, field as dfield
from functools import lru_cache

import numpy as np

from ..errors import ConventionError, ResourceLimitError

__all__ = ['FieldConfig', 'field']

# Largest field order built: the (q, q) tables are filled one pair at a
# time, so each extra degree costs about 4x (q = 256 takes about 0.5 s).
MAX_ORDER = 256


def _digits(e: int, p: int, r: int):
    out = []
    for _ in range(r):
        out.append(e % p)
        e //= p
    return out


def _undigits(ds, p: int) -> int:
    e = 0
    for d in reversed(ds):
        e = e * p + d
    return e


def _poly_mulmod(a, b, mod, p):
    # a, b digit lists (len r), mod digit list of the irreducible (len r+1, monic)
    r = len(mod) - 1
    prod = [0] * (2 * r - 1 if r > 0 else 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(r):
                prod[k - r + j] = (prod[k - r + j] - c * mod[j]) % p
    return [prod[i] % p for i in range(r)]


def _is_irreducible(coeffs, p):
    # coeffs: monic, little-endian, degree r; trial division by all monic
    # polys of degree 1..r//2
    r = len(coeffs) - 1

    def polydiv_rem(num, den):
        num = list(num)
        dd = len(den) - 1
        inv_lead = pow(den[-1], -1, p)
        for k in range(len(num) - 1, dd - 1, -1):
            c = (num[k] * inv_lead) % p
            if c:
                for j in range(dd + 1):
                    num[k - dd + j] = (num[k - dd + j] - c * den[j]) % p
        return any(num[:dd])

    from itertools import product
    for deg in range(1, r // 2 + 1):
        for tail in product(range(p), repeat=deg):
            den = list(tail) + [1]
            if not polydiv_rem(coeffs, den):
                return False
    return True


@dataclass(frozen=True)
class FieldConfig:
    """GF(p^r) with full arithmetic tables."""

    p: int = 2
    r: int = 2
    q: int = dfield(init=False)
    modulus: tuple = dfield(init=False)
    add: np.ndarray = dfield(init=False, repr=False, compare=False)
    mul: np.ndarray = dfield(init=False, repr=False, compare=False)
    neg: np.ndarray = dfield(init=False, repr=False, compare=False)
    inv: np.ndarray = dfield(init=False, repr=False, compare=False)
    frb: np.ndarray = dfield(init=False, repr=False, compare=False)
    frbi: np.ndarray = dfield(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, r = self.p, self.r
        if p < 2 or r < 1:
            raise ValueError('need a prime p >= 2 and r >= 1')
        q = 1
        for _ in range(r):          # p >= 2: stops within 9 steps
            q *= p
            if q > MAX_ORDER:
                raise ResourceLimitError('field order %d^%d exceeds bound %d'
                                         % (p, r, MAX_ORDER))
        for k in range(2, p):
            if p % k == 0:
                raise ValueError('%d is not prime' % p)
        object.__setattr__(self, 'q', q)
        from itertools import product as iproduct
        mod = None
        if r == 1:
            mod = (0, 1)
        else:
            for tail in iproduct(*(range(p) for _ in range(r))):
                cand = list(tail) + [1]
                if cand[0] != 0 and _is_irreducible(cand, p):
                    # no roots is necessary; trial division makes it sufficient
                    mod = tuple(cand)
                    break
        object.__setattr__(self, 'modulus', mod)

        digs = [_digits(e, p, r) for e in range(q)]
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(a, q):
                s = _undigits([(x + y) % p for x, y in zip(digs[a], digs[b])], p)
                add[a, b] = add[b, a] = s
                if r == 1:
                    m = (a * b) % p
                else:
                    m = _undigits(_poly_mulmod(digs[a], digs[b], list(mod), p), p)
                mul[a, b] = mul[b, a] = m
        neg = np.array([_undigits([(-x) % p for x in digs[a]], p) for a in range(q)],
                       dtype=np.int64)
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            for b in range(1, q):
                if mul[a, b] == 1:
                    inv[a] = b
                    break
        fr = np.arange(q, dtype=np.int64)
        for a in range(q):
            acc = 1
            for _ in range(p):
                acc = int(mul[acc, a])
            fr[a] = acc
        frb = fr
        frbi = np.zeros(q, dtype=np.int64)
        frbi[frb] = np.arange(q, dtype=np.int64)
        chk = np.arange(q, dtype=np.int64)
        for _ in range(r):
            chk = frb[chk]
        if not np.array_equal(chk, np.arange(q)):
            raise ConventionError('Frobenius of GF(%d^%d) is not of order %d' % (p, r, r))
        object.__setattr__(self, 'add', add)
        object.__setattr__(self, 'mul', mul)
        object.__setattr__(self, 'neg', neg)
        object.__setattr__(self, 'inv', inv)
        object.__setattr__(self, 'frb', frb)
        object.__setattr__(self, 'frbi', frbi)

    def __hash__(self):
        return hash((self.p, self.r))

    def __eq__(self, other):
        return isinstance(other, FieldConfig) and (self.p, self.r) == (other.p, other.r)

    def sub(self, a, b):
        return self.add[a, self.neg[b]]

    def primitive(self) -> int:
        """Smallest multiplicative generator (0 for the trivial group)."""
        n = self.q - 1
        if n == 1:
            return 0
        for g in range(2, self.q):
            acc, seen = 1, 0
            for _ in range(n):
                acc = int(self.mul[acc, g])
                seen += 1
                if acc == 1:
                    break
            if seen == n:
                return g
        raise RuntimeError('no generator found')

    def basis(self) -> tuple:
        """An F_p-basis of the field: the power-basis monomials."""
        return tuple(self.p ** i for i in range(self.r))


@lru_cache(maxsize=None)
def field(p: int = 2, r: int = 2) -> FieldConfig:
    return FieldConfig(p, r)
