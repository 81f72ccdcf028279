"""One integer contract: every integer input of the package is read by
errors.integers, which takes Python and numpy ints and refuses bools, so
True never stands for the row entry, block, dimension or count 1."""

import numpy as np
import pytest

from pkernels.affine import Element, newton_strata
from pkernels.criterion import Bounds, calibrate, incidence_table, lifts_to
from pkernels.errors import integers
from pkernels.polygons import (HodgeDatum, NewtonPolygon, eo_representative, parse_polygon,
                               x_block)
from pkernels.semimodules import (CocharacterProfile, SemimoduleBeginning,
                                  cochar_to_beginning, enumerate_cochar_block, is_beginning)
from pkernels.shtuka import (FiltrationData, bt1_of, eo_classify, field, iwahori_class_of,
                             iwahori_orbit_size, minimal_shtuka, random_filtration_data,
                             sample_cells, sigma_conjugate_sample)
from pkernels.shtuka import polymat as PM
from pkernels.shtuka.core import KeyedStream, random_unimodular
from pkernels.shtuka.reduction import lattice_key, random_iwahori

CFG = field(2, 2)
X = Element((1, 0), (2, 1))
XM = PM.pm_from_element(X)[0]
LIFT_P = parse_polygon('1/3x3,1')
LIFT = random_filtration_data(LIFT_P, CFG, np.random.default_rng(0))
(LIFT_ROW, LIFT_COLS), = LIFT.a.items()
LIFT_COL = next(iter(LIFT_COLS))
HD = HodgeDatum(2, 1)
UNIT = random_unimodular(2, CFG, 2, KeyedStream(0))


def _calibrate(seed=1, samples=1, sigma_trials=1):
    return calibrate(probes=((2, 1),), samples=samples, seed=seed, sigma_trials=sigma_trials)


# each reader with the integers it reads passed through t: t = int gives
# the answer, t = bool must be refused and t = np.int64 must give the answer
READERS = {
    'Element': lambda t: Element((t(1), t(0)), (2, 1)),
    'Element.perm': lambda t: Element((1, 0), (t(2), t(1))),
    'HodgeDatum': lambda t: HodgeDatum(2, t(1)),
    'NewtonPolygon': lambda t: NewtonPolygon(((t(1), t(1)),)),
    'lifts_to': lambda t: lifts_to(HodgeDatum(2, 1), (t(1), 2), parse_polygon('1/2x2')),
    'eo_representative': lambda t: eo_representative(HodgeDatum(2, 1), (t(1), 2)),
    'IncidenceTable.cell': lambda t: incidence_table(HodgeDatum(2, 1)).cell((t(1), 2), '1/2x2'),
    'is_beginning': lambda t: is_beginning({t(1), 2}, 1, 1),
    'SemimoduleBeginning': lambda t: SemimoduleBeginning({1, 2}, t(1), t(1)),
    'cochar_to_beginning': lambda t: cochar_to_beginning((t(0), t(1)), 1, 1),
    'CocharacterProfile': lambda t: CocharacterProfile((t(0), t(1)), (t(2),)),
    'FiltrationData': lambda t: FiltrationData(LIFT_P, LIFT.beginnings,
                                               {LIFT_ROW: {LIFT_COL: t(1)}}, {}, CFG).a,
    'random_unimodular': lambda t: random_unimodular(2, CFG, t(1), np.random.default_rng(0)),
    'random_iwahori': lambda t: random_iwahori(2, CFG, t(1), np.random.default_rng(0)),
    'lattice_key': lambda t: lattice_key(XM, CFG, t(2)),
    'iwahori_orbit_size': lambda t: iwahori_orbit_size(X, CFG, limit=t(100)),
    'pm_truncate': lambda t: PM.pm_truncate(XM, t(1)),
    'eo_classify': lambda t: eo_classify(bt1_of(minimal_shtuka(parse_polygon('0,1'), CFG)),
                                         t(1)),
    'square_rows': lambda t: PM.square_rows([[t(1), t(0)], [t(0), t(1)]], CFG, poly=False),
    'KeyedStream': lambda t: KeyedStream(t(1), 2).integers(0, 4, 3).tolist(),
    'sample_cells.seed': lambda t: list(sample_cells(HD, CFG, t(1), 2)),
    'sample_cells.count': lambda t: list(sample_cells(HD, CFG, 0, t(1))),
    'sigma_conjugate_sample.trials': lambda t: sigma_conjugate_sample(X, CFG, t(1)),
    'sigma_conjugate_sample.seed': lambda t: sigma_conjugate_sample(X, CFG, 2, seed=t(1)),
    'calibrate.seed': lambda t: _calibrate(seed=t(1)),
    'calibrate.samples': lambda t: _calibrate(samples=t(1)),
    'calibrate.samples[probe]': lambda t: _calibrate(samples={(2, 1): t(1)}),
    'calibrate.sigma_trials': lambda t: _calibrate(sigma_trials=t(1)),
    'field': lambda t: field(t(3), t(1)),
    'Bounds.max_height': lambda t: Bounds(max_height=t(2)),
    'Bounds.max_support': lambda t: Bounds(max_support=t(5)),
    'iwahori_class_of.shift': lambda t: iwahori_class_of(XM, CFG, shift=t(1)),
    'iwahori_class_of.expected_vdet': lambda t: iwahori_class_of(XM, CFG, expected_vdet=t(1)),
    'x_block': lambda t: x_block(t(1), 1),
    'enumerate_cochar_block': lambda t: enumerate_cochar_block(1, t(1)),
    'newton_strata': lambda t: newton_strata(X, limit=t(100)),
    'pm_frob': lambda t: PM.pm_frob(UNIT, CFG, t(1)),
    'pm_char_poly': lambda t: PM.pm_char_poly(UNIT, CFG, t(1)),
    'solve_mod.n': lambda t: PM.solve_mod(UNIT, t(2), 1, CFG),
    'solve_mod.e': lambda t: PM.solve_mod(UNIT, 2, t(1), CFG),
    'pm_inv_mod': lambda t: PM.pm_inv_mod(UNIT, t(1), CFG),
}


@pytest.mark.parametrize('name', sorted(READERS))
def test_readers_refuse_bools_and_take_numpy_ints(name):
    read = READERS[name]
    # square_rows keeps the ValueError it documents for every entry that
    # is no field index
    with pytest.raises(ValueError if name == 'square_rows' else TypeError):
        read(bool)
    assert read(np.int64) == read(int)


@pytest.mark.parametrize('limits', [{'max_height': -1}, {'max_height': 0},
                                    {'max_support': 0}, {'max_support': -5}])
def test_bounds_refuse_limits_below_one(limits):
    # a bound below 1 would refuse every query; a bound of 1 answers the
    # queries within it
    with pytest.raises(ValueError, match='at least 1'):
        Bounds(**limits)
    assert lifts_to(HodgeDatum(1, 0), (1,), parse_polygon('0'), bounds=Bounds(1, 1))


def test_integers_reads_each_value():
    assert integers() == ()
    assert integers(3, np.int8(-2), np.uint64(7)) == (3, -2, 7)
    assert all(type(v) is int for v in integers(np.int32(1), 2))
    for bad in ((True,), (1, False), (np.bool_(True),), (1.0,), ('1',), (None,)):
        with pytest.raises(TypeError):
            integers(*bad)


def test_a_numpy_or_bool_key_leaves_the_field_cache_whole():
    # field's cache once handed the F_4 built from field(np.int64(2), 2),
    # whose p was a numpy int, to every later field(2, 2): Packing then
    # failed on p.bit_length() in every oracle call over F_4.  And
    # field(2, True) found the entry of field(2, 1)
    field.cache_clear()
    try:
        cfg = field(np.int64(2), 2)
        assert (type(cfg.p), type(cfg.r)) == (int, int)
        cells = list(sample_cells(HD, field(2, 2), 1, 3))
        assert cells and all(type(v) is int for w, P in cells for v in (*w, *sum(P.blocks, ())))
        field(2, 1)
        with pytest.raises(TypeError):
            field(2, True)
    finally:
        field.cache_clear()
