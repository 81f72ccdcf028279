"""Whole rows of the incidence tables against published theorems that the
decision engine does not use."""

import pytest

from pkernels.affine import length
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
