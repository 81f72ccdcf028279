"""Whole rows of the incidence tables against published theorems that the
decision engine does not use."""

from itertools import accumulate

import pytest

from pkernels.affine import (length, newton_point, omega, reduced_decomposition,
                             simple_reflection)
from pkernels.criterion import Bounds, incidence_table
from pkernels.polygons import (HodgeDatum, enumerate_polygons, eo_representative,
                               polygon_from_slopes)
from pkernels.shtuka import bt1_of, eo_classify, minimal_shtuka

TO_7 = Bounds(max_height=7)


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
