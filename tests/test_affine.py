"""Group law, length, and reduced words for the extended affine Weyl group.

The group law is checked against an independent model: an element is the
monomial matrix with t^{lam_i} in row i, and multiplication is ordinary
matrix multiplication of monomial matrices (tracked as exponent dicts).
Lengths are checked against breadth-first search word length from the
length-zero elements.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from pkernels import affine, weyl
from pkernels.affine import Element
from pkernels.errors import ConventionError, ResourceLimitError
from pkernels.polygons import HodgeDatum, eo_representative, mu_and_type, polygon_from_slopes


# ---------------------------------------------------- monomial matrix model

def _mat(x):
    # (row, col) -> exponent of t; row u(j), column j carries lam[u(j)]
    out = {}
    for j in range(1, x.h + 1):
        i = x.perm[j - 1]
        out[(i, j)] = x.lam[i - 1]
    return out


def _mat_mul(a, b):
    out = {}
    for (i, j), e in a.items():
        for (jj, k), f in b.items():
            if jj == j:
                out[(i, k)] = e + f
    return out


def _random_element(rng, h, spread=2):
    lam = tuple(int(v) for v in rng.integers(-spread, spread + 1, size=h))
    perm = tuple(int(v) for v in rng.permutation(h) + 1)
    return Element(lam, perm)


@pytest.mark.parametrize('h', [1, 2, 3, 4, 5])
def test_group_law_matches_matrix_model(h):
    for trial in range(40):
        rng = np.random.default_rng([21, h, trial])
        x = _random_element(rng, h)
        y = _random_element(rng, h)
        assert _mat(x * y) == _mat_mul(_mat(x), _mat(y))


@pytest.mark.parametrize('h', [1, 2, 3, 4])
def test_inverse_and_pow(h):
    e = affine.identity(h)
    for trial in range(20):
        rng = np.random.default_rng([22, h, trial])
        x = _random_element(rng, h)
        assert x * x.inverse() == e
        assert x.inverse() * x == e
        assert x ** 0 == e
        assert x ** 3 == x * x * x
        assert x ** -2 == (x.inverse()) ** 2


def test_entry_valuations():
    x = Element((1, 0), (2, 1))
    v = x.entry_valuations()
    assert v[0][1] == 1 and v[1][0] == 0
    assert v[0][0] is None and v[1][1] is None


def test_v_det_additive():
    rng = np.random.default_rng(23)
    for trial in range(20):
        x = _random_element(rng, 3)
        y = _random_element(rng, 3)
        assert (x * y).v_det() == x.v_det() + y.v_det()


def test_omega_conjugates_simple_reflections():
    for h in (2, 3, 4, 5):
        om = affine.omega(h)
        for i in range(h):
            lhs = om * affine.simple_reflection(h, i) * om.inverse()
            assert lhs == affine.simple_reflection(h, (i - 1) % h)


def test_omega_power_h_is_central_translation():
    for h in (2, 3):
        assert affine.omega(h) ** h == affine.translation((1,) * h)


# ----------------------------------------------------------------- length

PINNED_LENGTHS = [
    (Element((0, 1), (2, 1)), 0),    # the length-zero rotation
    (Element((-1, 1), (2, 1)), 1),   # affine simple reflection
    (Element((1, 0), (1, 2)), 1),
    (Element((0, 1), (1, 2)), 1),
    (Element((1, -1), (1, 2)), 2),
    (Element((1, 0), (2, 1)), 2),
]


def test_pinned_lengths():
    for x, l in PINNED_LENGTHS:
        assert affine.length(x) == l, x


def _bfs_lengths(h, k, cap):
    # minimal word length over the simple reflections, starting from the
    # length-zero representative of the v_det = k component
    start = affine.omega(h) ** k
    dist = {start: 0}
    frontier = [start]
    gens = [affine.simple_reflection(h, i) for i in range(h)]
    for step in range(1, cap + 1):
        nxt = []
        for x in frontier:
            for s in gens:
                y = x * s
                if y not in dist:
                    dist[y] = step
                    nxt.append(y)
        frontier = nxt
    return dist


@pytest.mark.parametrize('h', [2, 3])
def test_length_matches_bfs(h):
    for k in (-1, 0, 1, 2):
        dist = _bfs_lengths(h, k, cap=8)
        assert dist, 'empty BFS'
        for x, d in dist.items():
            assert affine.length(x) == d, x
        # exhaustive over a small box: everything with small exponents and
        # the right determinant valuation was reached
        box = 1
        from itertools import product
        for lam in product(range(-box, box + 1), repeat=h):
            if sum(lam) != k:
                continue
            for u in weyl.all_permutations(h):
                x = Element(lam, u)
                if affine.length(x) <= 8:
                    assert x in dist, x


def test_length_invariances():
    rng = np.random.default_rng(24)
    for h in (2, 3, 4):
        om = affine.omega(h)
        for trial in range(25):
            x = _random_element(rng, h)
            l = affine.length(x)
            assert affine.length(x.inverse()) == l
            assert affine.length(om * x * om.inverse()) == l
            for i in range(h):
                ls = affine.length(x * affine.simple_reflection(h, i))
                assert abs(ls - l) == 1


def test_length_cache_is_bounded():
    # filling the memo past its cap clears it; answers do not change
    cap = affine._LENGTH_CACHE_MAX
    xs = [Element((a, b), u) for a in range(-70, 70) for b in range(-70, 70)
          for u in ((1, 2), (2, 1))]
    assert len(xs) > cap
    affine._length_cache.clear()
    probe = xs[::997]
    before = [affine.length(x) for x in probe]
    for x in xs:
        affine.length(x)
        assert len(affine._length_cache) <= cap
    assert [affine.length(x) for x in probe] == before


# ------------------------------------------------------------- flat coding

def _small_elements(max_h):
    # every element with lam in {-1, 0, 1}^h, h = 2…max_h
    for h in range(2, max_h + 1):
        for lam in itertools.product((-1, 0, 1), repeat=h):
            for u in weyl.all_permutations(h):
                yield Element(lam, u)


def _code(x):
    return x.lam + x.perm


def test_flat_steps_match_the_group_law():
    # s·y·s, s·y and the length change of s·y·s on the coding lam + perm
    # agree with Element products and length(), for every s_0…s_{h-1}
    for x in _small_elements(4):
        c = _code(x)
        assert affine._element(c) == x
        for i in range(x.h):
            s = affine.simple_reflection(x.h, i)
            assert affine._conj(c, i, x.h) == _code(s * x * s), (x, i)
            assert tuple(affine._left(c, i, x.h)) == _code(s * x), (x, i)
            assert (affine._conj_delta(c, i, x.h)
                    == affine.length(s * x * s) - affine.length(x)), (x, i)


def test_block_key_is_the_newton_point():
    for x in _small_elements(4):
        blocks = affine._blocks(affine._cycle_sums(_code(x)))
        nu = affine.newton_point(x)
        assert tuple(Fraction(a, a + b) for a, b in blocks for _ in range(a + b)) == nu, x
        if 0 <= min(nu) and max(nu) <= 1:
            assert blocks == polygon_from_slopes(nu).blocks, x


# ----------------------------------------------------- reduced decomposition

def reduced_decomposition(x: Element):
    """Write x = omega^k · s_{i_1} ··· s_{i_l} with l = length(x), as
    (k, [i_1, ..., i_l]).  Greedy: repeatedly strip a left descent.  The
    reference word of an element; raises ConventionError when the
    residual after length(x) strips is not a power of omega."""
    h = x.h
    k = x.v_det()
    rest = affine.omega(h) ** (-k) * x
    word = []
    refs = [affine.simple_reflection(h, i) for i in range(h)] if h >= 2 else []
    while affine.length(rest) > 0:
        for i, s in enumerate(refs):
            if affine.length(s * rest) < affine.length(rest):
                word.append(i)
                rest = s * rest
                break
        else:
            raise ConventionError('no descent found at positive length: %r' % (rest,))
    if rest != affine.identity(h):
        raise ConventionError('residual not an omega-power: %r' % (rest,))
    return k, word


def test_reduced_decomposition_pinned():
    assert reduced_decomposition(affine.omega(2)) == (1, [])
    assert reduced_decomposition(Element((-1, 1), (2, 1))) == (0, [0])
    assert reduced_decomposition(Element((1, 0), (1, 2))) == (1, [0])
    k, word = reduced_decomposition(Element((1, 0), (2, 1)))
    assert (k, len(word)) == (1, 2)


@pytest.mark.parametrize('h', [2, 3, 4])
def test_reduced_decomposition_roundtrip(h):
    rng = np.random.default_rng([25, h])
    for trial in range(40):
        x = _random_element(rng, h)
        k, word = reduced_decomposition(x)
        assert len(word) == affine.length(x)
        y = affine.omega(h) ** k
        seen = affine.length(y)
        for i in word:
            y = y * affine.simple_reflection(h, i)
            seen += 1
            assert affine.length(y) == seen  # every prefix is reduced
        assert y == x


# --------------------------------------------------------------- strata

def test_in_minuscule_double_coset():
    rng = np.random.default_rng(26)
    for trial in range(60):
        h = int(rng.integers(2, 5))
        x = _random_element(rng, h, spread=1)
        d = sum(v for v in x.lam if v == 1)
        expect = set(x.lam) <= {0, 1}
        for dd in range(h + 1):
            assert affine.in_minuscule_double_coset(x, h, dd) == (expect and dd == d)


def test_translation_conjugate_matches_matrix_model():
    rng = np.random.default_rng(27)
    for trial in range(40):
        h = int(rng.integers(2, 5))
        x = _random_element(rng, h)
        kappa = tuple(int(v) for v in rng.integers(-2, 3, size=h))
        got = affine.translation_conjugate(x, kappa)
        t = affine.translation(kappa)
        assert got == t.inverse() * x * t


def test_from_perm_and_translation():
    assert affine.from_perm((2, 3, 1)) == Element((0, 0, 0), (2, 3, 1))
    assert affine.translation((1, -1)) == Element((1, -1), (1, 2))
    with pytest.raises(ValueError):
        Element((0,), (2, 1))


# -------------------------------------------------------------- reduction

def _cyclic_shifts(y):
    return [affine.simple_reflection(y.h, i) for i in range(y.h)] if y.h > 1 else []


@pytest.mark.parametrize('h', [1, 2, 3, 4])
def test_newton_point_is_the_translation_part_of_a_power(h):
    # x^n is the translation by n·ν(x), permuted, for n = h!
    n = 1
    for k in range(2, h + 1):
        n *= k
    for trial in range(20):
        x = _random_element(np.random.default_rng([24, h, trial]), h)
        p = x ** n
        assert p.perm == weyl.identity(h)
        assert tuple(sorted(Fraction(v, n) for v in p.lam)) == affine.newton_point(x)


def test_newton_point_pinned():
    assert affine.newton_point(affine.omega(3)) == (Fraction(1, 3),) * 3
    assert affine.newton_point(Element((1, 0, 0), (1, 3, 2))) == (0, 0, 1)
    assert affine.newton_point(Element((2, 0, 1), (2, 1, 3))) == (1, 1, 1)


@pytest.mark.parametrize('h', [1, 2, 3, 4])
def test_newton_strata_contain_own_point_with_minimal_witnesses(h):
    # x lies in I·x·I, so ν(x) is always reached; every witness y is
    # minimal under cyclic shifts and carries its own Newton point
    for trial in range(25):
        x = _random_element(np.random.default_rng([25, h, trial]), h, spread=1)
        points, explored = affine.newton_strata(x)
        assert affine.newton_point(x) in points
        assert explored >= 1
        for nu, y in points.items():
            assert affine.newton_point(y) == nu
            assert y.v_det() == x.v_det()
            assert all(affine.length(s * y * s) >= affine.length(y) for s in _cyclic_shifts(y))


def test_newton_strata_conjugation_invariant():
    om = affine.omega(3)
    for trial in range(20):
        x = _random_element(np.random.default_rng([26, trial]), 3, spread=1)
        keys = set(affine.newton_strata(x)[0])
        assert set(affine.newton_strata(om * x * om.inverse())[0]) == keys
        for s in _cyclic_shifts(x):
            if affine.length(s * x * s) == affine.length(x):
                assert set(affine.newton_strata(s * x * s)[0]) == keys


def test_newton_strata_pinned():
    half, ordinary = (Fraction(1, 2),) * 2, (0, 1)
    # omega has length zero: minimal, one point
    assert affine.newton_strata(affine.omega(2)) == ({half: affine.omega(2)}, 1)
    # s_1·diag(t, 1) has length 2 and drops to the two length-0 and 1 cases
    points, explored = affine.newton_strata(Element((1, 0), (2, 1)))
    assert set(points) == {half, ordinary}


def test_newton_strata_memo_and_limit():
    # the same answers from an empty memo as from one warmed by every x
    xs = [_random_element(np.random.default_rng([27, k]), 4, spread=1) for k in range(10)]
    cold = []
    for x in xs:
        affine._memo.clear()
        cold.append(affine.newton_strata(x))
    assert [affine.newton_strata(x) for x in xs] == cold
    big = max(xs, key=lambda x: affine.newton_strata(x)[1])
    n = affine.newton_strata(big)[1]
    assert affine.newton_strata(big, limit=n)[1] == n
    with pytest.raises(ResourceLimitError):
        affine.newton_strata(big, limit=n - 1)


# ------------------------------------------- minimal length, closed form

def _reference_class(x):
    """The full walk of the class of x under length-preserving conjugation
    by the simple reflections: (members walked, whether one drops).  The
    walk stops at the first drop; a class without one is walked whole."""
    ell = affine.length(x)
    walked, seen = [x], {x}
    for y in walked:
        for s in _cyclic_shifts(y):
            z = s * y * s
            ell_z = affine.length(z)
            if ell_z < ell:
                return walked, True
            if ell_z == ell and z not in seen:
                seen.add(z)
                walked.append(z)
    return walked, False


def _reference_strata(x, memo):
    """B(x) by the full class walk, with the witnesses newton_strata picks."""
    if x not in memo:
        walked, drops = _reference_class(x)
        points = {affine.newton_point(x): x}
        if drops:
            for y in walked:
                s = next((s for s in _cyclic_shifts(y)
                          if affine.length(s * y * s) < affine.length(y)), None)
                if s is not None:
                    points = {**_reference_strata(s * y, memo),
                              **_reference_strata(s * y * s, memo)}
                    break
        memo[x] = points
    return memo[x]


def _min_length_by_slopes(x):
    # ⟨ν, 2ρ⟩ + Σ_C (|C|/b_C − 1), b_C the denominator of the slope of C
    nu = affine.newton_point(x)
    total = sum(abs(a - b) for a, b in itertools.combinations(nu, 2))
    for s, n in affine._cycle_sums(x.lam + x.perm):
        total += n // Fraction(s, n).denominator - 1
    return total


def _all_strata(max_h):
    for h in range(1, max_h + 1):
        for d in range(h + 1):
            hd = HodgeDatum(h, d)
            _, pairs = mu_and_type(hd)
            yield hd, [eo_representative(hd, w) for w in weyl.min_coset_reps(h, pairs)]


def test_min_length_pinned():
    assert affine.min_length(affine.omega(4)) == 0
    assert affine.min_length(affine.from_perm((2, 3, 1))) == 2       # a 3-cycle of S_3
    assert affine.min_length(affine.from_perm((2, 1, 4, 3))) == 2
    assert affine.min_length(Element((1, -1), (2, 1))) == 1          # slope 0 on a 2-cycle
    assert affine.min_length(affine.translation((2, 0, 1))) == 4     # ⟨ν, 2ρ⟩ = 1 + 1 + 2


def test_min_length_is_a_class_function_below_length():
    # it agrees with the slope form, never exceeds the length, and is the
    # same on conjugates by s_i, omega and translations
    for trial in range(300):
        rng = np.random.default_rng([32, trial])
        h = int(rng.integers(1, 7))
        x = _random_element(rng, h, spread=3)
        m = affine.min_length(x)
        assert m == _min_length_by_slopes(x) <= affine.length(x)
        conj = [affine.omega(h) * x * affine.omega(h).inverse(),
                affine.translation_conjugate(x, tuple(int(v) for v in rng.integers(-2, 3, size=h)))]
        conj += [s * x * s for s in _cyclic_shifts(x)]
        assert all(affine.min_length(y) == m for y in conj)


def test_min_length_decides_drops_on_every_reached_element():
    # every element the reduction reaches in a stratum with h <= 7, and
    # every member of its class, is terminal by the closed form exactly
    # when the full walk finds no drop
    for hd, xs in _all_strata(7):
        affine._memo.clear()
        for x in xs:
            affine.newton_strata(x)
        for c in affine._memo:
            walked, drops = _reference_class(affine._element(c))
            for y in walked:
                assert (affine.length(y) == affine.min_length(y)) is not drops, (hd, y)


def test_min_length_decides_drops_on_random_elements():
    terminal = 0
    for h in range(1, 8):
        for k in range(300):
            x = _random_element(np.random.default_rng([33, h, k]), h, spread=3)
            _, drops = _reference_class(x)
            assert (affine.length(x) == affine.min_length(x)) is not drops, x
            terminal += not drops
    assert 0 < terminal < 2100


def test_newton_strata_match_the_full_walk():
    # same points and same witnesses as the reduction that walks every class
    for hd, xs in _all_strata(6):
        memo = {}
        for x in xs:
            assert affine.newton_strata(x)[0] == _reference_strata(x, memo), (hd, x)


def _element_reduce(x, memo, refs):
    # the reduction on validated Elements, every conjugate built and its
    # length taken from length(): the reference for the flat coding
    done = memo.get(x)
    if done is None:
        ell = affine.length(x)
        if ell == affine.min_length(x):
            done = ({affine.newton_point(x): x}, 1)
        else:
            done = _element_drop(x, ell, memo, refs)
        memo[x] = done
    return done


def _element_drop(x, ell, memo, refs):
    walked = [x]
    seen = {x}
    for y in walked:
        for s in refs:
            z = s * y * s
            ell_z = affine.length(z)
            if ell_z < ell:
                points, n_sys = _element_reduce(z, memo, refs)
                more, n_sy = _element_reduce(s * y, memo, refs)
                return {**more, **points}, len(walked) + n_sys + n_sy
            if ell_z == ell and z not in seen:
                seen.add(z)
                walked.append(z)
    raise ConventionError('%r has no drop' % (x,))


def test_newton_strata_match_the_element_walk():
    # points, witnesses and explored, from an empty memo per table on each side
    for hd, xs in _all_strata(7):
        affine._memo.clear()
        ref_memo = {}
        refs = _cyclic_shifts(xs[0])
        for x in xs:
            assert (affine.newton_strata(x)
                    == _element_reduce(x, ref_memo, refs)), (hd, x)
        # the block key of every element the reduction reached
        for c in affine._memo:
            nu = affine.newton_point(affine._element(c))
            assert affine._blocks(affine._cycle_sums(c)) == polygon_from_slopes(nu).blocks


def test_reduction_raises_when_min_length_is_too_low(monkeypatch):
    # a class the closed form puts above its minimum must drop; the walk
    # checks that and raises when it finds no drop
    real = affine._min_length
    x = affine.translation((1, 0, 0))
    assert affine.length(x) == affine.min_length(x) == 2
    monkeypatch.setattr(affine, '_min_length', lambda cycles: real(cycles) - 2)
    # an empty memo: a tree built with the real closed form must not answer
    monkeypatch.setattr(affine, '_memo', {})
    with pytest.raises(ConventionError, match='no drop'):
        affine.newton_strata(x)
