"""Cocharacters, semimodule beginnings, and middle elements.

The enumeration is validated against an independent search: beginnings
are recovered by a depth-first scan over a window of integers with
forced-membership obligations, with no reference to cocharacters.
"""

from math import comb, gcd

import numpy as np
import pytest

from pkernels import affine
from pkernels.affine import Element
from pkernels.polygons import parse_polygon
from pkernels.semimodules import (
    CocharacterProfile, SemimoduleBeginning, cochar_to_beginning,
    enumerate_cochar_block, enumerate_profiles, eta_of, is_beginning,
    middle_element,
)

def beginning_to_cochar(B: SemimoduleBeginning) -> tuple:
    """Unique lambda with h+1-j+h*lambda_j in C for each j: the inverse of
    cochar_to_beginning, read off the residues of C."""
    h = B.n + B.m
    by_res = {c % h: c for c in B.C}
    lam = []
    for j in range(1, h + 1):
        c = by_res[(h + 1 - j) % h]
        num = c - (h + 1 - j)
        if num % h:
            raise ValueError('corrupt beginning')
        lam.append(num // h)
    return tuple(lam)


COPRIME = [(n, m) for n in range(1, 8) for m in range(1, 8)
           if n + m <= 8 and gcd(n, m) == 1]


def test_is_beginning_examples():
    assert is_beginning(frozenset({5}), 0, 1)
    assert is_beginning(frozenset({1, 2}), 1, 1)
    assert is_beginning(frozenset({2, 3}), 1, 1)
    # misses a residue class mod 2
    assert not is_beginning(frozenset({1, 3}), 1, 1)
    # 1 has neither 1+1 nor 1-1 in the set
    assert not is_beginning(frozenset({1, 4}), 1, 1)


def test_beginning_validation():
    with pytest.raises(ValueError):
        SemimoduleBeginning(frozenset({5}), 1, 1)
    B = SemimoduleBeginning(frozenset({2, 3}), 1, 1)
    assert B.sorted_elements() == (2, 3)


def test_beginning_elements_must_be_integers():
    # fractional elements raise instead of truncating; numpy ints are accepted
    with pytest.raises(TypeError):
        SemimoduleBeginning({1.5, 2}, 1, 1)
    with pytest.raises(TypeError):
        is_beginning({1.5, 2}, 1, 1)
    B = SemimoduleBeginning({np.int64(1), np.int64(2)}, 1, 1)
    assert B.C == frozenset({1, 2}) and all(type(c) is int for c in B.C)


def test_beginning_block_sizes_must_be_integers():
    # float block sizes raise instead of comparing equal to the block
    with pytest.raises(TypeError):
        SemimoduleBeginning({1, 2}, 1.0, 1.0)
    with pytest.raises(TypeError):
        SemimoduleBeginning({1, 2}, 1, 1.0)
    with pytest.raises(TypeError):
        is_beginning({1, 2}, 1.0, 1)
    B = SemimoduleBeginning({1, 2}, np.int64(1), np.int64(1))
    assert (B.n, B.m) == (1, 1) and type(B.n) is int and type(B.m) is int


def test_cocharacter_entries_must_be_integers():
    with pytest.raises(TypeError):
        cochar_to_beginning((0, 0.9), 1, 1)
    assert cochar_to_beginning(np.array([0, 0]), 1, 1) == cochar_to_beginning((0, 0), 1, 1)


def test_cochar_counts():
    for n, m in COPRIME:
        got = enumerate_cochar_block(n, m)
        assert len(got) == comb(n + m, n)
        assert len(set(got)) == len(got)
        assert got == sorted(got)
        for lam in got:
            assert min(lam) == 0


def test_pinned_cochars():
    assert enumerate_cochar_block(1, 1) == [(0, 0), (0, 1)]
    assert enumerate_cochar_block(1, 2) == [(0, 0, 0), (0, 0, 1), (0, 1, 1)]


def test_bijection_roundtrip():
    for n, m in COPRIME:
        for lam in enumerate_cochar_block(n, m):
            B = cochar_to_beginning(lam, n, m)
            assert is_beginning(B.C, n, m)
            assert beginning_to_cochar(B) == lam


def test_cochar_shift_moves_beginning():
    for n, m in ((1, 1), (2, 3), (3, 4)):
        h = n + m
        for lam in enumerate_cochar_block(n, m):
            B0 = cochar_to_beginning(lam, n, m)
            B1 = cochar_to_beginning(tuple(v + 1 for v in lam), n, m)
            assert B1.C == frozenset(c + h for c in B0.C)


# --------------------------------------------- independent window search

def _beginnings_window(n, m):
    """All beginnings with min element 0, found by brute enumeration of
    one-per-residue sets over a bounded window.  The closure property is
    re-stated inline rather than imported.  The count assertion in the
    caller guards against the window being too small."""
    import itertools
    h = n + m
    K = (n * m + h) // h + 2
    out = []
    for ks in itertools.product(range(K), repeat=h):
        C = frozenset(r + ks[r] * h for r in range(h))
        if min(C) != 0:
            continue
        if all((i + n in C) or (i - m in C) for i in C):
            out.append(C)
    return out


@pytest.mark.parametrize('n,m', [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3),
                                 (3, 2), (1, 4), (3, 4), (2, 5), (5, 2),
                                 (1, 6), (3, 5), (1, 7), (4, 3)])
def test_window_search_agreement(n, m):
    h = n + m
    found = _beginnings_window(n, m)
    # the count law: binomial(h, n) cochars fall into binomial(h, n)/h
    # shift classes, each represented once at min = 0
    assert len(found) == comb(h, n) // h
    assert len(set(found)) == len(found)
    # every enumerated beginning is a shift of a window one, and every
    # window one is hit
    normalized = set()
    for lam in enumerate_cochar_block(n, m):
        B = cochar_to_beginning(lam, n, m)
        lo = min(B.C)
        normalized.add(frozenset(c - lo for c in B.C))
    assert normalized == set(found)


# ------------------------------------------------------------- profiles

def test_profiles_product_structure():
    P = parse_polygon('0,1/2x2')
    profs = enumerate_profiles(P)
    assert len(profs) == 1 * 2
    assert [p.lam for p in profs] == [(0, 0, 0), (0, 0, 1)]
    assert all(p.block_sizes == (1, 2) for p in profs)
    P2 = parse_polygon('2/5x5')
    assert len(enumerate_profiles(P2)) == 10


def test_profile_validation():
    with pytest.raises(ValueError):
        CocharacterProfile((0, 1), (3,))
    with pytest.raises(TypeError):
        CocharacterProfile((0, 1.5), (2,))
    with pytest.raises(TypeError):
        CocharacterProfile((0, 1), (2.0,))
    prof = CocharacterProfile(np.array([0, 1]), (np.int64(2),))
    assert prof.lam == (0, 1) and prof.block_sizes == (2,)


def test_eta_pinned():
    assert eta_of(CocharacterProfile((0, 1, 0), (3,))) == (1, 3, 2)
    assert eta_of(CocharacterProfile((0, 0, 1), (3,))) == (1, 2, 3)
    # blockwise, with offsets
    assert eta_of(CocharacterProfile((0, 1, 0, 0), (2, 2))) == (1, 2, 3, 4)
    assert eta_of(CocharacterProfile((1, 0, 0, 0), (2, 2))) == (2, 1, 3, 4)


def test_eta_sorts_profile():
    for P in (parse_polygon('2/5x5'), parse_polygon('1/2x2,2/3x3')):
        for prof in enumerate_profiles(P):
            eta = eta_of(prof)
            off = 0
            for size in prof.block_sizes:
                vals = [prof.lam[eta[k] - 1] for k in range(off, off + size)]
                assert vals == sorted(vals)
                assert sorted(eta[off:off + size]) == list(range(off + 1, off + size + 1))
                off += size


def test_middle_elements_pinned():
    P = parse_polygon('1/2x2')
    profs = enumerate_profiles(P)
    mids = [middle_element(p, P) for p in profs]
    assert mids[0] == Element((0, 1), (2, 1))
    assert mids[1] == Element((1, 0), (2, 1))
    Po = parse_polygon('0,1')
    (prof,) = enumerate_profiles(Po)
    assert middle_element(prof, Po) == Element((0, 1), (1, 2))


def test_middles_are_minuscule_and_isocrystal_preserving():
    for s in ('1/2x2', '0,1', '1/3x3', '0,1/2x2', '2/3x3', '2/5x5'):
        P = parse_polygon(s)
        h, d = P.height, P.dimension
        for prof in enumerate_profiles(P):
            x = middle_element(prof, P)
            assert affine.in_minuscule_double_coset(x, h, d)
            assert x.v_det() == d


def test_middle_element_profile_mismatch():
    P = parse_polygon('1/2x2')
    with pytest.raises(ValueError):
        middle_element(CocharacterProfile((0, 0, 0), (3,)), P)
