"""Newton polygons, Hodge data, and stratum representatives."""

from fractions import Fraction
import itertools
from math import gcd

import numpy as np
import pytest

from pkernels import affine, weyl
from pkernels.affine import Element
from pkernels.criterion import lifts_to
from pkernels.polygons import (
    HodgeDatum, NewtonPolygon, enumerate_polygons, eo_representative,
    format_polygon, hodge_of, mu_and_type, parse_polygon, polygon_from_slopes,
    x_block, x_of_polygon,
)
from test_weyl import longest_element


def test_block_validation():
    with pytest.raises(ValueError):
        NewtonPolygon(((2, 2),))      # not coprime
    with pytest.raises(ValueError):
        NewtonPolygon(((-1, 2),))
    with pytest.raises(ValueError):
        NewtonPolygon(())
    assert NewtonPolygon(((1, 0), (0, 1))).blocks == ((0, 1), (1, 0))


def test_blocks_must_be_integers():
    # a fractional entry raises instead of truncating; numpy ints are accepted
    with pytest.raises(TypeError):
        NewtonPolygon(((0.5, 1),))
    with pytest.raises(TypeError):
        NewtonPolygon(((1.0, 1),))
    P = NewtonPolygon(((np.int64(1), np.int32(2)),))
    assert P.blocks == ((1, 2),) and all(type(v) is int for v in P.blocks[0])


def test_hodge_datum_must_be_integers():
    # a fractional height or dimension raises at construction, not later in
    # mu(); numpy ints are accepted
    with pytest.raises(TypeError):
        HodgeDatum(2.5, 1)
    with pytest.raises(TypeError):
        HodgeDatum(2, 1.0)
    hd = HodgeDatum(np.int64(3), np.int32(1))
    assert hd == HodgeDatum(3, 1) and type(hd.height) is int and type(hd.dimension) is int
    assert hd.mu() == (1, 0, 0)


def test_elements_and_rows_must_be_integers():
    # a float entry of an element or of a row raises at construction, not
    # later inside length or weyl.inverse; numpy ints are accepted
    for lam, perm in (((1.0, 0), (2, 1)), ((1, 0.5), (2.0, 1)), ((1, 0), (2.0, 1))):
        with pytest.raises(TypeError):
            Element(lam, perm)
    x = Element((np.int64(1), 0), [np.int32(2), 1])
    assert x == Element((1, 0), (2, 1)) and all(type(v) is int for v in x.lam + x.perm)
    hd = HodgeDatum(2, 1)
    with pytest.raises(TypeError):
        eo_representative(hd, (2.0, 1))
    with pytest.raises(TypeError):
        lifts_to(hd, (2.0, 1), parse_polygon('0,1'))
    assert eo_representative(hd, (np.int64(2), 1)) == Element((1, 0), (1, 2))
    assert lifts_to(hd, (np.int64(2), 1), parse_polygon('0,1')) is True


def test_blocks_sort_by_slope():
    # every ordering of three blocks, repeats (equal slopes) included,
    # ends in ascending slope order, as a sort by Fraction slope gives
    blocks = [(0, 1), (1, 2), (1, 1), (2, 1), (1, 0)]
    for combo in itertools.product(blocks, repeat=3):
        want = tuple(sorted(combo, key=lambda b: Fraction(b[0], b[0] + b[1])))
        assert NewtonPolygon(combo).blocks == want, combo


def test_height_dimension_slopes():
    P = parse_polygon('0,1/2x2,1')
    assert P.height == 4 and P.dimension == 2
    # both are stored once, as plain attributes: repr, to_dict, eq and
    # hash read the blocks alone
    assert repr(P) == 'NewtonPolygon(blocks=((0, 1), (1, 1), (1, 0)))'
    assert P.to_dict() == {'blocks': [[0, 1], [1, 1], [1, 0]]}
    assert hash(P) == hash(NewtonPolygon(P.blocks))
    assert P.slopes() == (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1))
    assert hodge_of(P) == HodgeDatum(4, 2)


def _fraction_spelling(P):
    # the canonical string read off the Fraction slopes with multiplicity
    parts = []
    for s, grp in itertools.groupby(P.slopes()):
        c = len(list(grp))
        parts.append(str(s) if c == 1 else '%sx%d' % (s, c))
    return ','.join(parts)


def test_string_roundtrip():
    for s in ('0,1', '1/2x2', '0x2,1', '2/5x5', '0x3', '1x2', '0,1/3x3,1x2'):
        P = parse_polygon(s)
        assert str(P) == s
        assert format_polygon(P) == s
        assert parse_polygon(str(P)) == P
    # every polygon of every stratum with h <= 11: the spelling from the
    # blocks is the one from the slopes, and it parses back
    for h in range(1, 12):
        for d in range(h + 1):
            for P in enumerate_polygons(HodgeDatum(h, d)):
                s = str(P)
                assert s == format_polygon(P) == _fraction_spelling(P), P
                assert parse_polygon(s) == P


def test_dict_roundtrip():
    P = parse_polygon('1/2x2,2/3x3')
    assert NewtonPolygon.from_dict(P.to_dict()) == P


def test_parse_errors():
    for s in ('2', '3/2x2', '1/2', '0x0', '', 'x2', '1/2x3', '1/0', '1/0x2'):
        with pytest.raises(ValueError):
            parse_polygon(s)


def test_parse_refuses_a_zero_count():
    # a token with count 0 would drop its slope; format_polygon never writes one
    for s in ('1/2x0,0,1', '1/2x2,0x0', '0x00,1', '1x0,0x2'):
        with pytest.raises(ValueError, match='bad slope token'):
            parse_polygon(s)
    assert parse_polygon('0x02,1/2x2') == parse_polygon('0x2,1/2x2')


def test_polygon_from_slopes_multiplicity():
    # slope with denominator q needs multiplicity divisible by q, and
    # each q-wide run contributes one block
    P = polygon_from_slopes([Fraction(1, 2)] * 4)
    assert P.blocks == ((1, 1), (1, 1))
    with pytest.raises(ValueError):
        polygon_from_slopes([Fraction(1, 3)] * 4)


def test_x_block():
    # j -> j+m for j <= n, else j-n, with the t's on the last n rows
    assert x_block(1, 1) == Element((0, 1), (2, 1))
    assert x_block(1, 2) == Element((0, 0, 1), (3, 1, 2))
    assert x_block(2, 1) == Element((0, 1, 1), (2, 3, 1))
    assert x_block(0, 1) == Element((0,), (1,))
    assert x_block(1, 0) == Element((1,), (1,))


def test_x_block_is_length_zero_in_its_block():
    # the block element is the canonical length-zero generator omega^n
    for n, m in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 2)):
        if gcd(n, m) != 1:
            continue
        h = n + m
        assert x_block(n, m) == affine.omega(h) ** n
        assert affine.length(x_block(n, m)) == 0


def test_x_of_polygon_block_diagonal():
    P = parse_polygon('0,1/2x2')
    x = x_of_polygon(P)
    assert x == Element((0, 0, 1), (1, 3, 2))
    assert x.v_det() == P.dimension
    # slopes ascend along the diagonal blocks
    P2 = parse_polygon('1/2x2,1')
    assert x_of_polygon(P2) == Element((0, 1, 1), (2, 1, 3))


@pytest.mark.parametrize('h', [2, 3, 4, 5, 6])
def test_enumeration_against_brute_force(h):
    blocks = [(n, m) for n in range(h + 1) for m in range(h + 1)
              if 1 <= n + m <= h and gcd(n, m) == 1]

    def rec(rem_h, rem_d, start, acc, out):
        if rem_h == 0:
            if rem_d == 0:
                out.add(tuple(sorted(acc, key=lambda b: Fraction(b[0], b[0] + b[1]))))
            return
        for bi in range(start, len(blocks)):
            n, m = blocks[bi]
            if n + m <= rem_h and n <= rem_d:
                rec(rem_h - n - m, rem_d - n, bi, acc + [(n, m)], out)

    for d in range(h + 1):
        brute = set()
        rec(h, d, 0, [], brute)
        got = enumerate_polygons(HodgeDatum(h, d))
        assert {p.blocks for p in got} == brute
        assert sorted(got, key=lambda p: p.blocks) == list(got)


def test_mu_and_type():
    mu, pairs = mu_and_type(HodgeDatum(4, 2))
    assert mu == (1, 1, 0, 0)
    assert pairs == frozenset({(1, 2), (3, 4)})
    mu0, pairs0 = mu_and_type(HodgeDatum(3, 0))
    assert mu0 == (0, 0, 0)
    assert pairs0 == weyl.simple_pairs(3)


def test_eo_representative_pinned():
    hd = HodgeDatum(2, 1)
    assert eo_representative(hd, (1, 2)) == Element((0, 1), (2, 1))
    assert eo_representative(hd, (2, 1)) == Element((1, 0), (1, 2))


def test_eo_representative_requires_minimal_rep():
    hd = HodgeDatum(3, 1)
    _, pairs = mu_and_type(hd)
    reps = weyl.min_coset_reps(3, pairs)
    for w in weyl.all_permutations(3):
        if w in reps:
            eo_representative(hd, w)
        else:
            with pytest.raises(ValueError):
                eo_representative(hd, w)


def test_eo_representative_matches_the_coset_product():
    # x_w = from_perm(w∘w_0∘w_{0,I})·eps^mu for every minimal coset
    # representative with h <= 7; a tuple of the wrong size raises.  For
    # h <= 4, eo_representative and lifts_to accept a tuple of {0, ..., h+1}^h
    # exactly when it is a representative, and name a non-permutation and a
    # non-minimal permutation apart
    for h in range(1, 8):
        for d in range(h + 1):
            hd = HodgeDatum(h, d)
            mu, pairs = mu_and_type(hd)
            u0 = weyl.compose(longest_element(h), longest_element(h, pairs))
            reps = weyl.min_coset_reps(h, pairs)
            for w in reps:
                expect = affine.from_perm(weyl.compose(w, u0)) * affine.translation(mu)
                assert eo_representative(hd, w) == expect, (hd, w)
            for bad in (tuple(range(2, h + 2)), weyl.identity(h + 1), weyl.identity(h - 1)):
                with pytest.raises(ValueError, match='permutation'):
                    eo_representative(hd, bad)
            if h > 4:
                continue
            P = enumerate_polygons(hd)[0]
            for w in itertools.product(range(h + 2), repeat=h):
                if w in reps:
                    eo_representative(hd, w)
                    lifts_to(hd, w, P)
                    continue
                why = 'not minimal' if weyl.is_permutation(w) else 'permutation'
                for query in (lambda: eo_representative(hd, w), lambda: lifts_to(hd, w, P)):
                    with pytest.raises(ValueError, match=why):
                        query()


@pytest.mark.parametrize('h', [2, 3, 4, 5])
def test_eo_representatives_injective_and_minuscule(h):
    for d in range(h + 1):
        hd = HodgeDatum(h, d)
        _, pairs = mu_and_type(hd)
        seen = set()
        for w in weyl.min_coset_reps(h, pairs):
            x = eo_representative(hd, w)
            assert x not in seen
            seen.add(x)
            # monomial matrix with exponents a permutation of mu
            assert sorted(x.lam) == [0] * (h - d) + [1] * d
            assert affine.in_minuscule_double_coset(x, h, d)
