"""Lifting filtration data to characteristic-zero-style module lattices."""

import pytest

from pkernels.polygons import HodgeDatum, enumerate_polygons, parse_polygon, x_of_polygon
from pkernels.semimodules import cochar_to_beginning, enumerate_cochar_block
from pkernels.shtuka import (FiltrationData, bt1_of, lift_from_filtration,
                             newton_polygon_of, random_filtration_data,
                             verify_lift)
from pkernels.shtuka import polymat as PM
from pkernels.shtuka.lifts import pair_basis, residue_of_filtration


def _zero_data(P, cfg):
    begs = tuple(cochar_to_beginning((0,) * (n + m), n, m) for n, m in P.blocks)
    return FiltrationData(P, begs, {}, {}, cfg)


def test_zero_corrections_give_block_matrix(cfg):
    for s in ('1/2x2', '0,1', '1/3x3,1', '1/2x2,2/3x3'):
        P = parse_polygon(s)
        sh = lift_from_filtration(_zero_data(P, cfg))
        xm, shift = PM.pm_from_element(x_of_polygon(P))
        assert shift == 0
        assert PM.pm_equal(PM.pm_trim(sh.amat), PM.pm_trim(xm))


def test_pair_basis_order():
    P = parse_polygon('1/2x2,2/3x3')
    begs = tuple(cochar_to_beginning((0,) * (n + m), n, m) for n, m in P.blocks)
    pairs = pair_basis(begs)
    assert len(pairs) == 5
    # blocks 1-indexed and ascending, j descending within each block
    assert [p[0] for p in pairs] == [1, 1, 2, 2, 2]
    assert pairs == ((1, 2), (1, 1), (2, 3), (2, 2), (2, 1))


def test_fv_is_multiplication_by_t(cfg):
    from pkernels.shtuka.lifts import _operators
    for seed in range(8):
        P = parse_polygon('1/2x2,2/3x3' if seed % 2 else '1/3x3,1')
        data = random_filtration_data(P, cfg, seed=seed)
        fmat, vmat = _operators(data)
        h = P.height
        t_eye = PM.pm_shift(PM.pm_eye(h), 1)
        fv = PM.pm_trim(PM.pm_mul(fmat, PM.pm_frob(vmat, cfg, 1), cfg))
        vf = PM.pm_trim(PM.pm_mul(vmat, PM.pm_frob(fmat, cfg, -1), cfg))
        assert PM.pm_equal(fv, PM.pm_trim(t_eye))
        assert PM.pm_equal(vf, PM.pm_trim(t_eye))


def test_entries_have_degree_at_most_one(cfg):
    for seed in range(5):
        P = parse_polygon('2/5x5')
        data = random_filtration_data(P, cfg, seed=seed)
        sh = lift_from_filtration(data)
        assert PM.pm_trim(sh.amat).shape[2] <= 2


def test_verify_lift_random(cfg):
    count = 0
    for h in (2, 3, 4):
        for d in range(h + 1):
            for P in enumerate_polygons(HodgeDatum(h, d)):
                for seed in range(2):
                    data = random_filtration_data(P, cfg, seed=seed)
                    rep = verify_lift(data)
                    assert all(rep.values()), (str(P), seed, rep)
                    count += 1
    assert count > 30


def test_residue_is_graded_module(cfg):
    P = parse_polygon('1/2x2,2/3x3')
    for seed in range(4):
        data = random_filtration_data(P, cfg, seed=seed)
        Z_direct = residue_of_filtration(data)
        Z_lift = bt1_of(lift_from_filtration(data))
        assert (Z_direct.fmat == Z_lift.fmat).all()
        assert (Z_direct.vmat == Z_lift.vmat).all()


def test_lift_polygon_and_class(cfg):
    P = parse_polygon('1/2x2,2/3x3')
    data = random_filtration_data(P, cfg, seed=11)
    sh = lift_from_filtration(data)
    assert newton_polygon_of(sh) == P
    assert sh.dimension == P.dimension


def test_random_filtration_determinism(cfg):
    P = parse_polygon('1/3x3,1')
    a = random_filtration_data(P, cfg, seed=4)
    b = random_filtration_data(P, cfg, seed=4)
    assert a.a == b.a and a.b == b.b and a.beginnings == b.beginnings


def test_explicit_families_validated(cfg):
    P = parse_polygon('1/2x2,2/3x3')
    data = random_filtration_data(P, cfg, seed=2)
    # the dual families are derived on construction, never given: the
    # same free families give the same twins, and the lift accepts them
    ok = FiltrationData(P, data.beginnings, data.a, data.b, cfg)
    assert ok.c == data.c and ok.d == data.d
    assert data.c and data.d
    assert lift_from_filtration(ok).dimension == P.dimension
    with pytest.raises(TypeError):
        FiltrationData(P, data.beginnings, data.a, data.b, cfg, c=data.c, d=data.d)


def test_beginnings_must_match_blocks(cfg):
    P = parse_polygon('1/2x2')
    wrong = (cochar_to_beginning((0, 0, 0), 1, 2),)
    with pytest.raises(ValueError):
        FiltrationData(P, wrong, {}, {}, cfg)


def test_nonzero_beginnings_still_lift(cfg):
    P = parse_polygon('2/3x3')
    for lam in enumerate_cochar_block(2, 1):
        data = FiltrationData(P, (cochar_to_beginning(lam, 2, 1),), {}, {}, cfg)
        rep = verify_lift(data)
        assert all(rep.values()), (lam, rep)
