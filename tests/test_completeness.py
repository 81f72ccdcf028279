"""Completeness of the incidence tables, by direct sampling.

Products i1·x_w·i2 with random Iwahori factors over F_2 are points of
the double coset I·x_w·I.  Classifying each one by its p-kernel class
and its Newton polygon must give back the row w, and the cells reached
this way must be exactly the table's nonempty cells.  Together with the
oracle soundness sweep of the acceptance gate this checks every table
from both sides.
"""

import numpy as np
import pytest

from pkernels.criterion import incidence_table
from pkernels.polygons import HodgeDatum, eo_representative
from pkernels.shtuka import LocalShtuka, bt1_of, eo_classify, newton_polygon_of
from pkernels.shtuka import polymat as PM
from pkernels.shtuka.reduction import random_iwahori

# at these seeds every cell is first reached within four samples of its row
PER_ROW = 8

STRATA = [(h, d) for h in range(1, 5) for d in range(h + 1)] + [(5, 2)]


@pytest.mark.parametrize('h,d', STRATA)
def test_sampling_reaches_exactly_the_nonempty_cells(cfg1, h, d):
    hd = HodgeDatum(h, d)
    t = incidence_table(hd)
    reached = set()
    for i, w in enumerate(t.rows):
        xm, shift = PM.pm_from_element(eo_representative(hd, w))
        assert shift == 0
        for k in range(PER_ROW):
            rng = np.random.default_rng([4417, h, d, i, k])
            m = PM.pm_mul(PM.pm_mul(random_iwahori(h, cfg1, 2, rng), xm, cfg1),
                          random_iwahori(h, cfg1, 2, rng), cfg1)
            sh = LocalShtuka(cfg1, PM.pm_trim(m))
            assert eo_classify(bt1_of(sh), d) == w, (w, k)
            reached.add((w, str(newton_polygon_of(sh))))
    nonempty = {(w, col) for w, row in zip(t.rows, t.values)
                for col, v in zip(t.cols, row) if v}
    assert reached == nonempty
