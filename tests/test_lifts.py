"""Lifting filtration data to characteristic-zero-style module lattices."""

import numpy as np
import pytest

from pkernels.errors import ConventionError
from pkernels.polygons import HodgeDatum, enumerate_polygons, parse_polygon, x_of_polygon
from pkernels.semimodules import SemimoduleBeginning, cochar_to_beginning, enumerate_cochar_block
from pkernels.shtuka import (FiltrationData, bt1_of, field, lift_from_filtration,
                             newton_polygon_of, random_filtration_data,
                             verify_lift)
from pkernels.shtuka import polymat as PM
from pkernels.shtuka.lifts import _steps, pair_basis, residue_of_filtration


def _zero_data(P, cfg):
    begs = tuple(cochar_to_beginning((0,) * (n + m), n, m) for n, m in P.blocks)
    return FiltrationData(P, begs, {}, {}, cfg)


def test_zero_corrections_give_block_matrix(cfg):
    for s in ('1/2x2', '0,1', '1/3x3,1', '1/2x2,2/3x3'):
        P = parse_polygon(s)
        sh = lift_from_filtration(_zero_data(P, cfg))
        xm, shift = PM.pm_from_element(x_of_polygon(P))
        assert shift == 0
        assert np.array_equal(PM.pm_trim(sh.amat), PM.pm_trim(xm))


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
        data = random_filtration_data(P, cfg, rng=np.random.default_rng(seed))
        fmat, vmat = (np.array(m, dtype=np.int64) for m in _operators(data))
        h = P.height
        t_eye = np.zeros((h, h, 2), dtype=np.int64)
        t_eye[np.arange(h), np.arange(h), 1] = 1
        fv = PM.pm_trim(PM.pm_mul(fmat, PM.pm_frob(vmat, cfg, 1), cfg))
        vf = PM.pm_trim(PM.pm_mul(vmat, PM.pm_frob(fmat, cfg, -1), cfg))
        assert np.array_equal(fv, t_eye)
        assert np.array_equal(vf, t_eye)


@pytest.mark.parametrize('op,coeff', [(0, 0), (0, 1), (1, 0), (1, 1)],
                         ids=['F-t0', 'F-t1', 'V-t0', 'V-t1'])
def test_lift_rejects_failed_exchange(cfg, monkeypatch, op, coeff):
    # one coefficient of F or V changed: F·sigma(V) or V·sigma^{-1}(F)
    # is no longer t
    from pkernels.shtuka import lifts
    data = random_filtration_data(parse_polygon('1/2x2,2/3x3'), cfg, rng=np.random.default_rng(3))
    assert lift_from_filtration(data).dimension == 3
    operators = lifts._operators

    def corrupted(d):
        ops = operators(d)
        entry = ops[op][1][2]
        entry[coeff] = cfg.tables[0][entry[coeff]][1]
        return ops

    monkeypatch.setattr(lifts, '_operators', corrupted)
    with pytest.raises(ConventionError, match='exchange identities fail'):
        lift_from_filtration(data)


def test_entries_have_degree_at_most_one(cfg):
    for seed in range(5):
        P = parse_polygon('2/5x5')
        data = random_filtration_data(P, cfg, rng=np.random.default_rng(seed))
        sh = lift_from_filtration(data)
        assert len(PM.pm_trim(sh.amat)[0][0]) <= 2


def test_verify_lift_random(cfg):
    count = 0
    for h in (2, 3, 4):
        for d in range(h + 1):
            for P in enumerate_polygons(HodgeDatum(h, d)):
                for seed in range(2):
                    data = random_filtration_data(P, cfg, rng=np.random.default_rng(seed))
                    rep = verify_lift(data)
                    assert all(rep.values()), (str(P), seed, rep)
                    count += 1
    assert count > 30


def test_residue_is_graded_module(cfg):
    P = parse_polygon('1/2x2,2/3x3')
    for seed in range(4):
        data = random_filtration_data(P, cfg, rng=np.random.default_rng(seed))
        Z_direct = residue_of_filtration(data)
        Z_lift = bt1_of(lift_from_filtration(data))
        assert Z_direct.fmat == Z_lift.fmat
        assert Z_direct.vmat == Z_lift.vmat


def test_lift_polygon_and_class(cfg):
    P = parse_polygon('1/2x2,2/3x3')
    data = random_filtration_data(P, cfg, rng=np.random.default_rng(11))
    sh = lift_from_filtration(data)
    assert newton_polygon_of(sh) == P
    assert sh.dimension == P.dimension


def test_random_filtration_determinism(cfg):
    P = parse_polygon('1/3x3,1')
    a = random_filtration_data(P, cfg, rng=np.random.default_rng(4))
    b = random_filtration_data(P, cfg, rng=np.random.default_rng(4))
    assert a.a == b.a and a.b == b.b and a.beginnings == b.beginnings


def test_explicit_families_validated(cfg):
    P = parse_polygon('1/2x2,2/3x3')
    data = random_filtration_data(P, cfg, rng=np.random.default_rng(2))
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


def test_float_block_sizes_are_rejected(cfg):
    # a beginning with float block sizes (say, read from JSON) raises
    # before it can match the block (1, 1)
    P = parse_polygon('1/2x2')
    with pytest.raises(TypeError):
        FiltrationData(P, (SemimoduleBeginning({1, 2}, 1.0, 1.0),), {}, {}, cfg)
    ok = FiltrationData(P, (SemimoduleBeginning({1, 2}, 1, 1),), {}, {}, cfg)
    assert ok.beginnings[0].n == 1


def test_nonzero_beginnings_still_lift(cfg):
    P = parse_polygon('2/3x3')
    for lam in enumerate_cochar_block(2, 1):
        data = FiltrationData(P, (cochar_to_beginning(lam, 2, 1),), {}, {}, cfg)
        rep = verify_lift(data)
        assert all(rep.values()), (lam, rep)


def test_coefficients_must_be_integers(cfg):
    P = parse_polygon('1/3x3,1')
    data = random_filtration_data(P, cfg, rng=np.random.default_rng(0))
    (p, row), = data.a.items()
    (p2, _), = row.items()
    # a fractional coefficient raises instead of truncating to an element
    # or to zero; numpy ints are accepted
    for v in (1.7, 0.4, 2.0):
        with pytest.raises(TypeError):
            FiltrationData(P, data.beginnings, {p: {p2: v}}, data.b, cfg)
    ok = FiltrationData(P, data.beginnings, {p: {p2: np.int64(2)}}, data.b, cfg)
    assert ok.a == {p: {p2: 2}} and type(ok.a[p][p2]) is int


def test_families_stay_in_their_steps(cfg):
    P = parse_polygon('1/3x3,1')
    data = random_filtration_data(P, cfg, rng=np.random.default_rng(0))
    (pa, _), = data.a.items()
    # a row in a on a pair that steps back, and a coefficient on the
    # forward step's own target
    with pytest.raises(ValueError, match='takes no free coefficients'):
        FiltrationData(P, data.beginnings, {(2, 1): {(1, 5): 1}}, {}, cfg)
    target = next(t for p, t, _, _ in _steps(P, data.beginnings)[1] if p == pa)
    with pytest.raises(ValueError, match='outside its predecessor range'):
        FiltrationData(P, data.beginnings, {pa: {target: 1}}, {}, cfg)


def test_twins_land_where_the_dual_step_comes_back(cfg):
    # each F step from p to t is undone by the V step from t, in the other
    # direction and with the same predecessor range: the twin of p's row
    # is the row of t in the other family
    for s in ('1/3x3,1', '1/2x2,2/3x3', '2/5x5', '0,1/2x2,1'):
        P = parse_polygon(s)
        for seed in range(3):
            data = random_filtration_data(P, cfg, rng=np.random.default_rng(seed))
            pairs, f_steps = _steps(P, data.beginnings)
            _, v_steps = _steps(P, data.beginnings, dual=True)
            assert pairs == data.pairs == pair_basis(data.beginnings)
            back = {p: (t, fwd, upto) for p, t, fwd, upto in v_steps}
            for p, t, fwd, upto in f_steps:
                assert back[t] == (p, not fwd, upto)
                row = (data.a if fwd else data.b).get(p)
                twin = (data.d if fwd else data.c).get(t)
                assert twin == ({k: cfg.tables[2][v] for k, v in row.items()} if row else None)


def test_too_many_beginnings_raise_value_error(cfg):
    P = parse_polygon('1/2x2')
    extra = (cochar_to_beginning((0, 0), 1, 1), cochar_to_beginning((0, 0), 1, 1))
    with pytest.raises(ValueError, match='one beginning per block'):
        random_filtration_data(P, cfg, rng=np.random.default_rng(0), beginnings=extra)
    with pytest.raises(ValueError, match='one beginning per block'):
        FiltrationData(P, extra, {}, {}, cfg)


# Seeded draws pinned to literal values: a change in the order of the
# draws changes every seeded certificate built on them
PINNED = {
    ('1/3x3,1', 0): ([[3, 4, 5], [1]],
                     {(1, 3): {(1, 5): 2}},
                     {(2, 1): {(1, 5): 2, (1, 4): 1, (1, 3): 1}}),
    ('1/3x3,1', 1): ([[2, 3, 4], [1]],
                     {(1, 2): {(1, 4): 2}},
                     {(2, 1): {(1, 4): 3, (1, 3): 3}}),
    ('1/2x2,2/3x3', 0): ([[2, 3], [2, 3, 4]],
                         {},
                         {(2, 4): {(1, 3): 2, (1, 2): 1}, (2, 3): {(1, 3): 1}}),
    ('1/2x2,2/3x3', 1): ([[1, 2], [2, 3, 4]],
                         {(2, 2): {(1, 2): 3}},
                         {(2, 4): {(1, 2): 3, (1, 1): 3}, (2, 3): {(2, 4): 3}}),
}


@pytest.mark.parametrize('key', sorted(PINNED))
def test_seeded_families_pinned(key):
    s, seed = key
    begs, a, b = PINNED[key]
    data = random_filtration_data(parse_polygon(s), field(2, 2), rng=np.random.default_rng(seed))
    assert [sorted(B.C) for B in data.beginnings] == begs
    assert data.a == a and data.b == b
