"""Whole rows of the incidence tables against published theorems that the
decision engine does not use."""

from pkernels.criterion import incidence_table
from pkernels.polygons import HodgeDatum, enumerate_polygons
from pkernels.shtuka import bt1_of, eo_classify, minimal_shtuka


def test_minimal_module_row_has_one_cell(cfg1):
    # Oort, "Minimal p-divisible groups" (Ann. Math. 2005): a p-divisible
    # group with the p-kernel of the minimal group H(P) is isomorphic to
    # H(P), so the row of that p-kernel meets the stratum of P alone
    seen = 0
    for h in range(1, 7):
        for d in range(h + 1):
            hd = HodgeDatum(h, d)
            t = incidence_table(hd)
            for P in enumerate_polygons(hd):
                w = eo_classify(bt1_of(minimal_shtuka(P, cfg1)), d)
                row = t.values[t.rows.index(w)]
                assert [c for c, v in zip(t.cols, row) if v] == [str(P)], (hd, str(P))
                seen += 1
    assert seen == 106
