r"""Small finite fields as lookup tables.

Elements of GF(p^r) are the integers 0..p^r-1, read as base-p digit
vectors (little-endian) against the power basis of F_p[x]/(f), f the
first monic irreducible of degree r in the order of (f_0, ..., f_{r-1})
(f = x for r = 1).  All arithmetic is table lookup: ``tables`` holds
add, mul, neg and inv as tuples of ints (``MUL[a][b]``), ``frobs`` the
Frobenius a -> a^p and its inverse, all built in pure Python.  A field
also keeps the Packings its callers ask for (FieldConfig.packing), so
they go with it when field's cache is cleared.

Addition is digit-wise mod p.  One rule multiplies, _products: Horner on
x, a·b = (b mod p)·a + x·(a·(b div p)), where x·a shifts the digits of a
up and folds the top digit c down as -c·(f - x^r).  It fills mul and
selects f: F_p[x]/(f) is a field exactly when f is irreducible, and a
reducible f has a factor g of degree 1..r//2 (Lidl-Niederreiter, Finite
Fields, 2nd ed., 1997), an element of index 1..p^(r//2+1)-1 with
g·(f/g) = 0.  So the first candidate (f_0 = 0 skipped) with no such zero
divisor is the first irreducible, the f that trial division picks.
"""

from dataclasses import dataclass, field as dfield
from functools import lru_cache
from itertools import product

from .._kernels import Packing
from ..errors import ConventionError, ResourceLimitError, integers

__all__ = ['FieldConfig', 'field']

# Largest field order built: each (q, q) table of tuples takes about 530 KB at q = 256.
MAX_ORDER = 256
# Packings one field keeps (FieldConfig.packing)
PACKINGS = 64


def _products(add, times, mod, among):
    """The rows [a·b for b in 0..q-1] of the a in among, mod f = mod, from
    the add table and times[c][a] = c·a for c in F_p (module docstring)."""
    p, q = len(times), len(add)
    low = sum(c * p ** i for i, c in enumerate(mod[:-1]))              # f - x^r
    xa = [add[a * p % q][times[-(a * p // q) % p][low]] for a in range(q)]  # x·a
    for a in among:
        row = [times[c][a] for c in range(p)]
        for b in range(p, q):
            row.append(add[row[b % p]][xa[row[b // p]]])
        yield row


def _modulus(add, times, r):
    """f for r >= 2: the first candidate with no zero divisor (module docstring)."""
    small = range(1, len(times) ** (r // 2 + 1))
    for tail in product(range(len(times)), repeat=r):
        mod = tail + (1,)
        if tail[0] and not any(0 in row[1:] for row in _products(add, times, mod, small)):
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
        p, r = integers(self.p, self.r)
        if p < 2 or r < 1:
            raise ValueError('need a prime p >= 2 and r >= 1')
        q = p ** min(r, 9)          # p >= 2, so p^9 > MAX_ORDER
        if q > MAX_ORDER:
            raise ResourceLimitError('field order %d^%d exceeds bound %d' % (p, r, MAX_ORDER))
        if any(p % k == 0 for k in range(2, p)):
            raise ValueError('%d is not prime' % p)
        add = [list(range(q))]      # digit-wise mod p, by the digits above the lowest
        for a in range(1, q):
            add.append([(a + b) % p + p * add[a // p][b // p] for b in range(q)])
        times = [[0] * q]           # times[c][a] = c·a for c in F_p
        for _ in range(p - 1):
            times.append([add[t][a] for a, t in enumerate(times[-1])])
        mod = (0, 1) if r == 1 else _modulus(add, times, r)
        mul = list(_products(add, times, mod, range(q)))
        frb = frbi = add[0]         # the identity; then a^p, frb^(r-1) (inverse if frb^r = 1)
        for _ in range(p - 1):
            frb = [mul[f][a] for a, f in enumerate(frb)]
        for _ in range(r - 1):
            frbi = [frb[f] for f in frbi]
        if [frb[f] for f in frbi] != add[0]:
            raise ConventionError('Frobenius of GF(%d^%d) is not of order %d' % (p, r, r))
        tables = (tuple(map(tuple, add)), tuple(map(tuple, mul)), tuple(times[-1]),
                  tuple(row.index(1) if 1 in row else 0 for row in mul))
        for name, value in dict(p=p, r=r, q=q, modulus=mod, tables=tables,
                                frobs=(tuple(frb), tuple(frbi)), _packings={}).items():
            object.__setattr__(self, name, value)

    def packing(self, n: int, terms: int):
        """The _kernels.Packing(self, n, terms), built once and kept, at
        most PACKINGS of them (oldest dropped first)."""
        key = (n, terms)
        lay = self._packings.get(key)
        if lay is None:
            if len(self._packings) >= PACKINGS:
                del self._packings[next(iter(self._packings))]
            lay = self._packings[key] = Packing(self, n, terms)
        return lay

    def basis(self) -> tuple:
        """An F_p-basis of the field: the power-basis monomials."""
        return tuple(self.p ** i for i in range(self.r))


@lru_cache(maxsize=None, typed=True)  # field(2, True) must not find field(2, 1)
def field(p: int = 2, r: int = 2) -> FieldConfig:
    return FieldConfig(p, r)
