"""Finite field table construction.

The modulus choice is re-derived independently: coefficients are base-p
digit vectors, and irreducibility is checked by trial division against
every monic polynomial of degree at most r/2.  The tables are checked
against pair-at-a-time digit arithmetic.
"""

import itertools

import numpy as np
import pytest

from conftest import arrays
from pkernels.errors import ConventionError, ResourceLimitError
from pkernels.shtuka import Bt1Module, field, gf
from pkernels.shtuka.polymat import square_rows

FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
# every field up to the order bound (gf.MAX_ORDER = 256)
ALL_FIELDS = [(p, r) for p in range(2, 257) if all(p % k for k in range(2, p))
              for r in range(1, 9) if p ** r <= 256]
# the largest field of each characteristic 2, 3, 5, 7 and the largest prime
SAMPLED_FIELDS = [(2, 8), (3, 5), (5, 3), (7, 2), (251, 1)]


# ------------------------------------- independent polynomial arithmetic

def _poly_mod(num, den, p):
    num = list(num)
    while len(num) >= len(den):
        c = num[-1]
        if c:
            shift = len(num) - len(den)
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - c * d) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(poly, p):
    r = len(poly) - 1
    for deg in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            den = list(tail) + [1]
            if not _poly_mod(poly, den, p):
                return False
    return True


def _smallest_irreducible(p, r):
    for tail in itertools.product(range(p), repeat=r):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError('none found')


@pytest.mark.parametrize('p,r', ALL_FIELDS)
def test_modulus_is_smallest_irreducible(p, r):
    cfg = field(p, r)
    assert cfg.q == p ** r
    assert cfg.modulus == _smallest_irreducible(p, r)


def test_f4_modulus_pinned():
    assert field(2, 2).modulus == (1, 1, 1)


def _digits(a, p, r):
    out = []
    for _ in range(r):
        out.append(a % p)
        a //= p
    return out


def _to_int(digits, p):
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _check_pair(cfg, a, b):
    p, r = cfg.p, cfg.r
    da, db = _digits(a, p, r), _digits(b, p, r)
    s = [(x + y) % p for x, y in zip(da, db)]
    assert cfg.tables[0][a][b] == _to_int(s, p)
    prod = [0] * (2 * r - 1)
    for i in range(r):
        for j in range(r):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    rem = _poly_mod(prod, list(cfg.modulus), p)
    rem += [0] * (r - len(rem))
    assert cfg.tables[1][a][b] == _to_int(rem, p)


def _check_neg(cfg):
    p, r = cfg.p, cfg.r
    for a in range(cfg.q):
        assert cfg.tables[2][a] == _to_int([-x % p for x in _digits(a, p, r)], p)


@pytest.mark.parametrize('p,r', [f for f in ALL_FIELDS if f[0] ** f[1] <= 64])
def test_add_mul_against_digit_arithmetic(p, r):
    cfg = field(p, r)
    for a in range(cfg.q):
        for b in range(cfg.q):
            _check_pair(cfg, a, b)
    _check_neg(cfg)


@pytest.mark.parametrize('p,r', SAMPLED_FIELDS)
def test_add_mul_against_digit_arithmetic_sampled(p, r):
    cfg = field(p, r)
    rng = np.random.default_rng([43, p, r])
    for a, b in rng.integers(0, cfg.q, size=(4096, 2)).tolist():
        _check_pair(cfg, a, b)
    _check_neg(cfg)


@pytest.mark.parametrize('p,r', FIELDS)
def test_field_axioms(p, r):
    cfg = field(p, r)
    q = cfg.q
    ADD, MUL, NEG, INV = cfg.tables
    rng = np.random.default_rng([41, p, r])
    trips = rng.integers(0, q, size=(120, 3))
    for a, b, c in trips:
        assert ADD[a][b] == ADD[b][a]
        assert MUL[a][b] == MUL[b][a]
        assert ADD[ADD[a][b]][c] == ADD[a][ADD[b][c]]
        assert MUL[MUL[a][b]][c] == MUL[a][MUL[b][c]]
        assert MUL[a][ADD[b][c]] == ADD[MUL[a][b]][MUL[a][c]]
    for a in range(q):
        assert ADD[a][NEG[a]] == 0
        assert MUL[a][1] == a
        if a:
            assert MUL[a][INV[a]] == 1
    assert ADD[3 % q][NEG[3 % q]] == 0


@pytest.mark.parametrize('p,r', FIELDS)
def test_frobenius(p, r):
    cfg = field(p, r)
    ADD, MUL = cfg.tables[:2]
    FRB, FRBI = cfg.frobs
    for a in range(cfg.q):
        # a^p by repeated multiplication
        ap = 1
        for _ in range(p):
            ap = MUL[ap][a]
        assert FRB[a] == ap
        assert FRBI[FRB[a]] == a
        assert FRB[FRBI[a]] == a
    # order exactly r
    x = np.arange(cfg.q)
    y = x
    for k in range(1, r + 1):
        y = arrays(cfg).frb[y]
        if k < r:
            assert (y != x).any() or cfg.q == p  # proper power moves something
    assert (y == x).all()
    # additive and multiplicative
    rng = np.random.default_rng([42, p, r])
    for a, b in rng.integers(0, cfg.q, size=(60, 2)):
        assert FRB[ADD[a][b]] == ADD[FRB[a]][FRB[b]]
        assert FRB[MUL[a][b]] == MUL[FRB[a]][FRB[b]]


@pytest.mark.parametrize('p,r', FIELDS)
def test_primitive_and_basis(p, r):
    cfg = field(p, r)
    prim = cfg.primitive()
    if cfg.q == 2:
        assert prim == 0
    else:
        seen = set()
        x = 1
        for _ in range(cfg.q - 1):
            seen.add(x)
            x = cfg.tables[1][x][prim]
        assert len(seen) == cfg.q - 1
    basis = cfg.basis()
    assert len(basis) == r
    # spans the additive group
    span = {0}
    for e in basis:
        new = set()
        for v in span:
            acc = v
            for _ in range(p - 1):
                acc = cfg.tables[0][acc][e]
                new.add(acc)
        span |= new
    assert len(span) == cfg.q


def test_field_cache():
    assert field(2, 2) is field(2, 2)
    with pytest.raises(ValueError):
        field(4, 1)
    with pytest.raises(ValueError):
        field(2, 0)


def test_field_order_bound():
    # the largest field built is GF(2^8); past it nothing is tabulated
    assert field(2, 8).q == gf.MAX_ORDER
    for p, r in ((2, 9), (257, 1), (3, 10 ** 9), (10 ** 9 + 7, 1)):
        with pytest.raises(ResourceLimitError, match='exceeds bound 256'):
            gf.FieldConfig(p, r)


def test_field_rejects_frobenius_of_wrong_order(monkeypatch):
    # with a reducible modulus (x^2 + 1 over F_2) the tables are no field
    # and x -> x^2 is not of order 2: a raise, which python -O keeps
    monkeypatch.setattr(gf, '_modulus', lambda digits, p, r: (1, 0, 1))
    with pytest.raises(ConventionError, match='not of order 2'):
        gf.FieldConfig(2, 2)


def test_array_validates_field_indices():
    # polymat.square_rows takes any nested sequence, ndarrays included
    cfg = field(2, 2)
    src = np.array([[0, 3], [2, 1]])[:, ::-1]       # a non-contiguous view
    a = square_rows(src, cfg, poly=False)
    assert a == ((3, 0), (1, 2)) and type(a[0][0]) is int
    rows = [[0, 3], [2, 1]]
    Z = Bt1Module(cfg, rows, rows)
    rows[0][0] = 2                  # a datum keeps a copy: the caller's list may change
    assert Z.fmat == Z.vmat == ((0, 3), (2, 1))
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=r'field indices must lie in \[0, 4\)'):
            square_rows([[0, bad], [0, 0]], cfg, poly=False)
    # integer-valued floats are indices; a fraction is refused, not truncated
    assert square_rows(np.array([[1.0, 3.0], [0.0, 2.0]]), cfg, poly=False) == ((1, 3), (0, 2))
    for bad in ([[1.7, 2.2], [0, 0]], [[0.9]], [[3, -0.5], [0, 0]]):
        with pytest.raises(ValueError, match='field indices must be integers'):
            square_rows(bad, cfg, poly=False)
    with pytest.raises(ValueError, match='field indices must be integers'):
        Bt1Module(cfg, [[0.9]], [[0]])
    # a matrix is h rows of h entries: no rows, ragged rows and nested
    # entries are refused
    for bad in ([], [[0, 1], [2]], [[0, 1], 2], [[[0], [1]], [[2], [3]]]):
        with pytest.raises(ValueError, match=r'\(h, h\) array'):
            Bt1Module(cfg, bad, bad)


def test_list_tables_equal_the_arrays():
    # numpy builds the tables; the field keeps them once, as the tuples of
    # ints that the kernels read (cfg.tables, cfg.frobs)
    for p, r in ALL_FIELDS:
        cfg = field(p, r)
        add, mul, neg, inv = cfg.tables
        assert len(add) == len(mul[-1]) == len(neg) == len(inv) == cfg.q
        assert type(add) is type(add[0]) is type(mul[-1]) is type(neg) is type(inv) is tuple
        assert type(mul[-1][-1]) is int
        assert all(type(t) is tuple and len(t) == cfg.q for t in cfg.frobs)


def test_field_keeps_its_packings():
    # FieldConfig.packing builds the Packing of each (n, terms) once, with
    # its Frobenius maps; at most PACKINGS are kept, the oldest dropped
    # first, and field.cache_clear() drops them with the tables
    cfg = gf.FieldConfig(2, 3)      # a private instance: field() shares its cache
    lay = cfg.packing(4, 3)
    assert cfg.packing(4, 3) is lay and (lay.n, lay.terms) == (4, 3)
    assert lay.frobenius(1) is lay.frobenius(4)         # sigma^4 = sigma over F_8
    coeffs = [1, 2, 5, 7]
    x = lay.pack(coeffs)
    for k in range(3):
        image = coeffs
        for _ in range(k):
            image = [cfg.frobs[0][e] for e in image]
        assert lay.unpack(lay.frobenius(k)(x)) == image
    for n in range(1, gf.PACKINGS + 5):
        cfg.packing(n, 1)
    assert len(cfg._packings) == gf.PACKINGS
    assert cfg.packing(4, 3) is not lay
    kept = field(2, 3).packing(4, 3)
    assert field(2, 3).packing(4, 3) is kept
    field.cache_clear()
    assert field(2, 3).packing(4, 3) is not kept
