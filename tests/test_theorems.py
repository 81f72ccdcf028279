"""Whole rows of the incidence tables against published theorems that the
decision engine does not use."""

from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from pkernels import affine, criterion, weyl
from pkernels.affine import Element, length, newton_point, newton_strata, omega, simple_reflection
from pkernels.criterion import Bounds, incidence_table
from pkernels.polygons import (HodgeDatum, NewtonPolygon, enumerate_polygons,
                               eo_representative, mu_and_type, parse_polygon,
                               polygon_from_slopes)
from pkernels.shtuka import bt1_of, eo_classify, minimal_shtuka
from test_affine import reduced_decomposition

TO_7 = Bounds(max_height=7)


@pytest.fixture(autouse=True)
def _own_reductions():
    # each gate starts from an empty engine memo and row store, so it
    # reads only the reductions it made itself
    affine._memo.clear()
    criterion._rows.clear()


def _minimal_rows_have_one_cell(heights, cfg):
    # Oort, "Minimal p-divisible groups" (Ann. Math. 2005): a p-divisible
    # group with the p-kernel of the minimal group H(P) is isomorphic to
    # H(P), so the row of that p-kernel meets the stratum of P alone
    seen = 0
    for h in heights:
        for d in range(h + 1):
            hd = HodgeDatum(h, d)
            t = incidence_table(hd, bounds=TO_7)
            for P in enumerate_polygons(hd):
                w = eo_classify(bt1_of(minimal_shtuka(P, cfg)), d)
                row = t.values[t.rows.index(w)]
                assert [c for c, v in zip(t.cols, row) if v] == [str(P)], (hd, str(P))
                seen += 1
    return seen


def test_minimal_module_row_has_one_cell(cfg1):
    assert _minimal_rows_have_one_cell(range(1, 7), cfg1) == 106


def test_minimal_module_row_has_one_cell_at_height_7(cfg1):
    assert _minimal_rows_have_one_cell([7], cfg1) == 86


@pytest.mark.parametrize('h', range(1, 8))
def test_mu_ordinary_row_is_the_ordinary_column(h):
    # Moonen, "Serre-Tate theory for moduli spaces of PEL type" (Ann. Sci.
    # ENS 2004): the mu-ordinary Newton stratum, here the ordinary polygon,
    # is the p-kernel stratum of the longest x_w, so that row meets the
    # ordinary column alone and the column meets no other row
    for d in range(h + 1):
        hd = HodgeDatum(h, d)
        t = incidence_table(hd, bounds=TO_7)
        lengths = [length(eo_representative(hd, w)) for w in t.rows]
        top = lengths.index(max(lengths))
        assert lengths.count(lengths[top]) == 1, hd
        ordinary = str(polygon_from_slopes([0] * (h - d) + [1] * d))
        col = t.cols.index(ordinary)
        assert [c for c, v in zip(t.cols, t.values[top]) if v] == [ordinary], hd
        assert [w for w, row in zip(t.rows, t.values) if row[col]] == [t.rows[top]], hd


def _bruhat_interval(x):
    # subword property: y <= x exactly when y is the product of a subword
    # of a reduced word of x, with the same power of omega
    k, word = reduced_decomposition(x)
    ys = {omega(x.h) ** k}
    for i in word:
        s = simple_reflection(x.h, i)
        ys |= {y * s for y in ys}
    return ys


def _dominates(nu, mu):
    # ascending slopes: the partial sums from the largest slope are >=,
    # and the totals are equal
    a, b = list(accumulate(reversed(nu))), list(accumulate(reversed(mu)))
    return a[-1] == b[-1] and all(p >= q for p, q in zip(a, b))


def _largest(points):
    return [p for p in points if all(_dominates(p, q) for q in points)]


def _generic_points_match(heights):
    # Viehmann, "Newton strata in the loop group of a reductive group"
    # (Amer. J. Math. 2013): the largest point of B(x) is the
    # dominance-largest Newton point over the Bruhat interval y <= x, which
    # is read off reduced_decomposition with no conjugation walk
    rows = 0
    for h in heights:
        for d in range(h + 1):
            hd = HodgeDatum(h, d)
            t = incidence_table(hd, bounds=TO_7)
            slopes = {str(P): P.slopes() for P in enumerate_polygons(hd)}
            for w, row in zip(t.rows, t.values):
                met = {slopes[c] for c, v in zip(t.cols, row) if v}
                nus = {newton_point(y) for y in _bruhat_interval(eo_representative(hd, w))}
                top = _largest(nus)
                assert len(top) == 1, (hd, w)
                assert _largest(met) == top, (hd, w)
                rows += 1
    return rows


def test_generic_newton_point_is_the_largest_cell():
    assert _generic_points_match(range(2, 7)) == 124


def test_generic_newton_point_is_the_largest_cell_at_height_7():
    assert _generic_points_match([7]) == 128


def _dual_row(w):
    # w0·w·w0: j -> h+1-w(h+1-j)
    h = len(w)
    return tuple(h + 1 - w[h - j] for j in range(1, h + 1))


def _rows(hd):
    return weyl.min_coset_reps(hd.height, mu_and_type(hd)[1])


def _met(hd, w):
    # the columns of the row w, by the reduction of its representative
    # x_w and not by a table, so no way of building tables gates itself
    points = newton_strata(eo_representative(hd, w))[0]
    return {str(polygon_from_slopes(nu)) for nu in points}


def _dual_polygon(name):
    return str(NewtonPolygon(tuple(b[::-1] for b in parse_polygon(name).blocks)))


def _dual_tables_match(heights):
    # Cartier duality sends the stratum (h, d) to (h, h - d), each block
    # (n, m) to (m, n), and the row w to w0·w·w0
    cells = 0
    for h in heights:
        for d in range(h + 1):
            hd, dual = HodgeDatum(h, d), HodgeDatum(h, h - d)
            cols = [str(P) for P in enumerate_polygons(hd)]
            assert (sorted(map(_dual_polygon, cols))
                    == sorted(str(P) for P in enumerate_polygons(dual))), (h, d)
            rows = _rows(hd)
            assert sorted(map(_dual_row, rows)) == sorted(_rows(dual)), (h, d)
            for w in rows:
                want = _met(dual, _dual_row(w))
                assert set(map(_dual_polygon, _met(hd, w))) == want, (h, d, w)
                cells += len(cols)
    return cells


def test_cartier_dual_tables_match():
    # every stratum with h <= 7
    assert _dual_tables_match(range(1, 8)) == 3098


def _p_alcove_excludes_basic(lam, u):
    # Görtz–He–Nie, "P-alcoves and nonemptiness of affine Deligne-Lusztig
    # varieties" (Ann. Sci. ENS 2015): for basic b, X_x(b) is empty exactly
    # when x is a P-alcove for a proper Levi M with kappa_M(x) off
    # kappa_M(b).  For x = (lam, u) in GL_h, M is cut out by an ordered
    # partition into unions of cycles of u, and x is a P-alcove when
    # U_alpha ∩ xIx^-1 lies in I for every entry (i, j) from an earlier
    # part to a later one: lam_i - lam_j + [u^-1(i) > u^-1(j)] >= [i > j].
    # A failing finer partition has a failing two-block coarsening, so
    # two blocks S, T suffice; kappa is off when S has a lam-sum other
    # than v(det x)·|S|/h.
    h = len(u)
    pos = {v: j for j, v in enumerate(u)}
    seen, cycles = set(), []
    for i in range(1, h + 1):
        cycle = []
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = u[i - 1]
        cycles += [cycle] if cycle else []
    for mask in range(1, 2 ** len(cycles) - 1):
        s = [i for k, c in enumerate(cycles) if mask >> k & 1 for i in c]
        t = [i for k, c in enumerate(cycles) if not mask >> k & 1 for i in c]
        if (sum(lam[i - 1] for i in s) * h != sum(lam) * len(s)
                and all(lam[i - 1] - lam[j - 1] + (pos[i] > pos[j]) >= (i > j)
                        for i in s for j in t)):
            return True
    return False


def _word(w, d):
    # the 0/1 word of a row: letter i is 1 when w(i) <= d
    return ''.join('1' if v <= d else '0' for v in w)


def _row_of_word(word, d):
    # the row with this 0/1 word: its 1s take the values 1..d in order,
    # its 0s d+1..h
    ones, zeros = iter(range(1, d + 1)), iter(range(d + 1, len(word) + 1))
    return tuple(next(ones) if c == '1' else next(zeros) for c in word)


def _split_rows_match(heights):
    # Demazure, Lectures on p-divisible groups (LNM 302): over an
    # algebraically closed field X = X^et × X^ll × X^mult.  A row whose
    # word is 0^e·c·1^f, with e + f > 0 and c local-local (empty, or from
    # 1 to 0), is the row of c at (h-e-f, d-f) with e slopes 0 and f
    # slopes 1 added; an empty c leaves the single polygon 0^e·1^f
    rows = 0
    for h in heights:
        for d in range(h + 1):
            hd = HodgeDatum(h, d)
            for w in _rows(hd):
                word = _word(w, d)
                rest = word.lstrip('0')
                core = rest.rstrip('1')
                e, f = h - len(rest), len(rest) - len(core)
                if not e + f:
                    continue
                met = [()]
                if core:
                    chd = HodgeDatum(len(core), d - f)
                    met = [parse_polygon(c).slopes()
                           for c in _met(chd, _row_of_word(core, d - f))]
                want = {str(polygon_from_slopes((0,) * e + s + (1,) * f)) for s in met}
                assert _met(hd, w) == want, (h, d, w)
                rows += 1
    return rows


def test_etale_and_multiplicative_parts_split_off():
    # every row with h <= 9 that has a leading 0 or a trailing 1
    assert _split_rows_match(range(1, 10)) == 767


@pytest.mark.slow
def test_etale_and_multiplicative_parts_split_off_at_height_10():
    assert _split_rows_match([10]) == 768


def _basic_columns_match(heights):
    # the basic column of the table is nonempty exactly when no P-alcove
    # rules it out
    rows = 0
    for h in heights:
        for d in range(h + 1):
            hd = HodgeDatum(h, d)
            t = incidence_table(hd)
            col = t.cols.index(str(polygon_from_slopes([Fraction(d, h)] * h)))
            for w, row in zip(t.rows, t.values):
                x = eo_representative(hd, w)
                assert row[col] != _p_alcove_excludes_basic(x.lam, x.perm), (hd, w)
                rows += 1
    return rows


def test_basic_column_is_the_p_alcove_criterion():
    # every row of every stratum with h <= 9
    assert _basic_columns_match(range(1, 10)) == 1022


@pytest.mark.slow
def test_basic_column_is_the_p_alcove_criterion_at_height_10():
    assert _basic_columns_match([10]) == 1024


def _basic_points_match(rng, count, heights):
    # the basic point is in B(x) exactly when no P-alcove rules it out,
    # for seeded x with lam_i in [-2, 2]
    for _ in range(count):
        h = int(rng.integers(*heights))
        x = Element(tuple(int(v) for v in rng.integers(-2, 3, size=h)),
                    tuple(int(v) + 1 for v in rng.permutation(h)))
        basic = (Fraction(x.v_det(), h),) * h
        assert (basic in newton_strata(x)[0]) != _p_alcove_excludes_basic(x.lam, x.perm), x


def test_basic_point_of_random_elements_is_the_p_alcove_criterion():
    # rows alone let a wrong alcove inequality through; 1200 seeded x
    # with h <= 5 do not
    _basic_points_match(np.random.default_rng(31), 1200, (1, 6))


@pytest.mark.slow
def test_basic_point_of_random_elements_is_the_p_alcove_criterion_at_height_6():
    _basic_points_match(np.random.default_rng(32), 1000, (6, 7))
