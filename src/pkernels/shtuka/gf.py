r"""Small finite fields as lookup tables.

Elements of GF(p^r) are the integers 0..p^r-1, read as base-p digit
vectors (little-endian) against the power basis of F_p[x]/(f), f the
first monic irreducible of degree r in the order of (f_0, ..., f_{r-1})
(f = x for r = 1).  All arithmetic is table lookup: ``tables`` holds
add, mul, neg and inv as tuples of ints (``MUL[a][b]``), ``frobs`` the
Frobenius a -> a^p and its inverse; numpy only builds them.  A field
also keeps the Packings its callers ask for (FieldConfig.packing), so
they go with it when field's cache is cleared.

One rule multiplies, _mulmod: convolve two digit vectors and fold each
x^k, k >= r, down by f, digits mod p.  It fills mul and selects f:
F_p[x]/(f) is a field exactly when f is irreducible, and a reducible f
has a factor g of degree 1..r//2 (Lidl-Niederreiter, Finite Fields, 2nd
ed., 1997), an element of index 1..p^(r//2+1)-1 with g·(f/g) = 0.  So
the first candidate (f_0 = 0 skipped) with no such zero divisor is the
first irreducible, the f that trial division picks.
"""

from dataclasses import dataclass, field as dfield
from functools import lru_cache
from itertools import product

import numpy as np

from .._kernels import Packing
from ..errors import ConventionError, ResourceLimitError

__all__ = ['FieldConfig', 'field']

# Largest field order built: each (q, q) table of tuples takes about 530 KB at q = 256.
MAX_ORDER = 256
# Packings one field keeps (FieldConfig.packing)
PACKINGS = 64
_ROWS = 4                           # rows per block: keeps the digit products small


def _mulmod(a, b, modulus, p):
    """Digits of a·b mod (f = modulus, p) for broadcasting digit arrays (..., r)."""
    r = len(modulus) - 1
    prod = np.zeros(np.broadcast(a, b).shape[:-1] + (2 * r - 1,), dtype=np.int64)
    for i in range(r):
        prod[..., i:i + r] += a[..., i:i + 1] * b
    for k in range(2 * r - 2, r - 1, -1):
        prod[..., k - r:k] -= prod[..., k:k + 1] % p * modulus[:r]
    return prod[..., :r] % p


def _modulus(digits, p, r):
    """f for r >= 2: the first candidate with no zero divisor (module docstring)."""
    small, nonzero = digits[1:p ** (r // 2 + 1), None], digits[None, 1:]
    for tail in product(range(p), repeat=r):
        mod = tail + (1,)
        if tail[0] and not any((_mulmod(small[s:s + _ROWS], nonzero, mod, p) == 0).all(-1).any()
                               for s in range(0, len(small), _ROWS)):
            return mod


@dataclass(frozen=True)
class FieldConfig:
    """GF(p^r) with full arithmetic tables; equal and hashed by the fields
    that compare, p, r, q and the modulus, so by (p, r)."""

    p: int = 2
    r: int = 2
    q: int = dfield(init=False)
    modulus: tuple = dfield(init=False)
    tables: tuple = dfield(init=False, repr=False, compare=False)   # (add, mul, neg, inv)
    frobs: tuple = dfield(init=False, repr=False, compare=False)    # (frb, frbi)
    _packings: dict = dfield(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, r = self.p, self.r
        if p < 2 or r < 1:
            raise ValueError('need a prime p >= 2 and r >= 1')
        q = p ** min(r, 9)          # p >= 2, so p^9 > MAX_ORDER
        if q > MAX_ORDER:
            raise ResourceLimitError('field order %d^%d exceeds bound %d' % (p, r, MAX_ORDER))
        if any(p % k == 0 for k in range(2, p)):
            raise ValueError('%d is not prime' % p)
        place = p ** np.arange(r)
        digits = np.arange(q)[:, None] // place % p
        mod = (0, 1) if r == 1 else _modulus(digits, p, r)
        add, mul = np.empty((q, q), dtype=np.int64), np.empty((q, q), dtype=np.int64)
        for s in range(0, q, _ROWS):
            add[s:s + _ROWS] = (digits[s:s + _ROWS, None] + digits) % p @ place
            mul[s:s + _ROWS] = _mulmod(digits[s:s + _ROWS, None], digits, mod, p) @ place
        idx = np.arange(q)
        frb = idx                   # a^p
        for _ in range(p - 1):
            frb = mul[frb, idx]
        frbi = idx                  # frb^(r-1), the inverse when frb^r = 1
        for _ in range(r - 1):
            frbi = frb[frbi]
        if (frb[frbi] != idx).any():
            raise ConventionError('Frobenius of GF(%d^%d) is not of order %d' % (p, r, r))
        neg, inv = -digits % p @ place, (mul == 1).argmax(1).astype(np.int64)
        tables = tuple(tuple(map(tuple, t.tolist()) if t.ndim == 2 else t.tolist())
                       for t in (add, mul, neg, inv))
        frobs = tuple(frb.tolist()), tuple(frbi.tolist())
        for name, value in dict(q=q, modulus=mod, tables=tables, frobs=frobs,
                                _packings={}).items():
            object.__setattr__(self, name, value)

    def packing(self, n: int, terms: int):
        """The _kernels.Packing(self, n, terms), with its Frobenius maps;
        built once and kept, at most PACKINGS of them (oldest dropped
        first)."""
        key = (n, terms)
        lay = self._packings.get(key)
        if lay is None:
            if len(self._packings) >= PACKINGS:
                del self._packings[next(iter(self._packings))]
            lay = self._packings[key] = Packing(self, n, terms)
        return lay

    def primitive(self) -> int:
        """Smallest multiplicative generator (0 for the trivial group)."""
        n, MUL = self.q - 1, self.tables[1]
        if n == 1:
            return 0
        for g in range(2, self.q):
            acc, seen = 1, 0
            for _ in range(n):
                acc = MUL[acc][g]
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
