"""Local shtukas: residues, classification, Newton polygons, reduction."""

from collections import Counter
import itertools

import numpy as np
import pytest

from pkernels import affine
from pkernels.affine import Element
from pkernels.errors import ConventionError
from pkernels.polygons import (HodgeDatum, enumerate_polygons, eo_representative,
                               mu_and_type, parse_polygon, x_of_polygon)
from pkernels.semimodules import (cochar_to_beginning, enumerate_cochar_block,
                                  enumerate_profiles, middle_element)
from pkernels.shtuka import (Bt1Module, bt1_of, canonical_filtration, eo_classify,
                             field, graded_bt1_from_beginning, iwahori_class_of,
                             iwahori_orbit_size, minimal_shtuka, newton_polygon_of,
                             run_consistency_suite, sample_shtuka,
                             shtuka_from_element, sigma_conjugate_sample)
from pkernels.shtuka import polymat as PM
from pkernels.shtuka import bt1
from pkernels.shtuka.bt1 import space_rows, v_preimage
from pkernels.shtuka.core import LocalShtuka, random_unimodular
from pkernels.shtuka.reduction import random_iwahori
from pkernels import weyl
from test_kernels import FIELDS, _series_inv_lists
from test_polymat import _valuation


# ---------------------------------------------------------------- bt1

def test_bt1_check_rejects_bad_pair(cfg):
    f = np.zeros((2, 2), dtype=np.int64)
    v = np.zeros((2, 2), dtype=np.int64)
    f[0, 0] = 1
    v[0, 0] = 1   # im V = ker F fails: im F = im V = e1
    Z = Bt1Module(cfg, f, v)
    for _ in range(2):      # a failing check is not remembered
        with pytest.raises(ValueError):
            Z.check()


def _span(rows, cfg):
    """Every vector of the span of rows, as tuples."""
    out = set()
    for coeffs in itertools.product(range(cfg.q), repeat=rows.shape[0]):
        v = np.zeros(rows.shape[1], dtype=np.int64)
        for c, r in zip(coeffs, rows):
            v = cfg.add[v, cfg.mul[c, r]]
        out.add(tuple(int(e) for e in v))
    return out


def _matvec(mat, x, cfg):
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, x):
            acc = cfg.add[acc, cfg.mul[a, b]]
        out.append(int(acc))
    return tuple(out)


@pytest.mark.parametrize('p,r', [(2, 1), (3, 1), (2, 2)])
def test_preimages_match_brute_force(p, r):
    # V^{-1}(U) and ker against every vector of F_q^h
    cfg = field(p, r)
    for h in range(1, 5):
        vectors = [np.array(v, dtype=np.int64)
                   for v in itertools.product(range(cfg.q), repeat=h)]
        for k in range(h + 1):
            for trial in range(2):
                rng = np.random.default_rng([71, p, r, h, k, trial])
                f, v = (rng.integers(0, cfg.q, size=(h, h), dtype=np.int64) for _ in range(2))
                f[rng.random(h) < 0.3] = 0      # some rank drops
                v[rng.random(h) < 0.3] = 0
                if k == h:
                    u = np.eye(h, dtype=np.int64)
                else:
                    u = space_rows(rng.integers(0, cfg.q, size=(k, h), dtype=np.int64), cfg)
                span_u = _span(u, cfg)
                Z = Bt1Module(cfg, f, v)
                cases = [
                    (v_preimage(Z, u), lambda x: _matvec(v, cfg.frbi[x], cfg) in span_u),
                    (bt1._image_and_kernel(f, cfg)[1], lambda x: not any(_matvec(f, x, cfg))),
                ]
                for got, member in cases:
                    assert np.array_equal(got, space_rows(got, cfg))
                    want = {tuple(int(e) for e in x) for x in vectors if member(x)}
                    assert _span(got, cfg) == want, (h, k, trial)


def test_bt1_of_diag_t_1(cfg):
    Z = bt1_of(shtuka_from_element(Element((1, 0), (1, 2)), cfg))
    assert Z.fmat.tolist() == [[0, 0], [0, 1]]
    assert Z.vmat.tolist() == [[1, 0], [0, 0]]
    assert Z.dimension == 1


def test_bt1_of_omega(cfg):
    Z = bt1_of(shtuka_from_element(affine.omega(2), cfg))
    assert Z.fmat.tolist() == [[0, 1], [0, 0]]
    assert Z.vmat.tolist() == [[0, 1], [0, 0]]


def test_bt1_routes_agree():
    # the solve reproduces V from the sampler's own factors: for
    # A = U1·diag(t^mu)·U2, t·A^{-1} = U2^{-1}·diag(t^(1-mu))·U1^{-1}, so
    # V mod t is U2(0)^{-1}·diag(mu)·U1(0)^{-1}, assembled here from the
    # factors redrawn out of the same rng
    for p, r in ((2, 2), (3, 1), (2, 3)):
        cfg = field(p, r)
        for h in range(1, 6):
            for d in range(h + 1):
                for seed in range(3):
                    sh = sample_shtuka(HodgeDatum(h, d), cfg, seed=[p, r, h, d, seed])
                    rng = np.random.default_rng([p, r, h, d, seed])
                    u1 = random_unimodular(h, cfg, 2, rng)
                    u2 = random_unimodular(h, cfg, 2, rng)
                    mu = np.diag([1] * d + [0] * (h - d))
                    want = PM.gf_mat_mul(
                        PM.gf_mat_mul(PM.gf_mat_inv(u2[:, :, 0], cfg), mu, cfg),
                        PM.gf_mat_inv(u1[:, :, 0], cfg), cfg)
                    Z = bt1_of(sh)
                    assert np.array_equal(Z.fmat, sh.amat[:, :, 0])
                    assert np.array_equal(cfg.frb[Z.vmat], want), (p, r, h, d, seed)
                    assert sh.dimension == d


@pytest.mark.parametrize('amat', [
    [[[0, 0, 1], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]],       # diag(t^2, 1)
    [[[0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]],       # diag(t, 0)
    [[[1, 0, 0], [1, 0, 0]], [[1, 0, 0], [1, 0, 0]]],       # rank 1, constant
], ids=['non-minuscule', 'singular', 'singular-constant'])
def test_bt1_of_rejects_non_minuscule_and_singular(cfg, amat):
    # A·X = t·I has no solution mod t^2
    sh = LocalShtuka(cfg, np.array(amat))
    with pytest.raises(ValueError, match='singular or not minuscule'):
        bt1_of(sh)
    with pytest.raises(ValueError, match='singular or not minuscule'):
        sh.dimension


def test_bt1_of_rejects_dimension_mismatch(cfg, monkeypatch):
    sh = sample_shtuka(HodgeDatum(3, 1), cfg, seed=1)
    monkeypatch.setattr(Bt1Module, 'dimension', property(lambda self: 2))
    with pytest.raises(ConventionError, match='residue module has dimension 2'):
        bt1_of(sh)


def _count_solves(monkeypatch):
    # the matrices bt1 takes image and kernel of, one rref each
    solves = []
    solve = bt1._image_and_kernel
    monkeypatch.setattr(bt1, '_image_and_kernel',
                        lambda mat, c: solves.append(mat) or solve(mat, c))
    return solves


def test_bt1_image_of_f_is_computed_once(cfg, monkeypatch):
    # bt1_of runs check() and reads dimension, a second check() is
    # remembered, eo_classify walks the canonical filtration from the
    # whole space: im F comes from the one solve on fmat, and F of the
    # whole space is never formed
    bt1._reference_signatures(3, 1)
    solves = _count_solves(monkeypatch)
    whole = []
    f_image = bt1.f_image
    monkeypatch.setattr(bt1, 'f_image', lambda Z, rows: whole.append(
        np.array_equal(rows, np.eye(Z.h, dtype=np.int64))) or f_image(Z, rows))
    Z = bt1_of(sample_shtuka(HodgeDatum(3, 1), cfg, seed=3))
    assert Z.dimension == 1 and Z.check() is Z
    eo_classify(Z, 1)
    assert sum(np.array_equal(mat, Z.fmat) for mat in solves) == 1
    assert whole and not any(whole)


def test_bt1_kernel_of_v_is_computed_once(cfg, monkeypatch):
    # check() compares im F with ker V, and the canonical filtration
    # starts from V^{-1}(0) = ker V: both read the one solve on vmat, and
    # every other preimage the filtration takes is of a nonzero subspace
    bt1._reference_signatures(3, 1)
    solves = _count_solves(monkeypatch)
    calls = []
    preimage = bt1._image_preimage
    monkeypatch.setattr(bt1, '_image_preimage', lambda mat, u_rows, c: calls.append(
        (mat, u_rows.shape[0])) or preimage(mat, u_rows, c))
    Z = bt1_of(sample_shtuka(HodgeDatum(3, 1), cfg, seed=3))
    eo_classify(Z, 1)
    assert not np.array_equal(Z.fmat, Z.vmat)
    assert sum(np.array_equal(mat, Z.vmat) for mat in solves) == 1
    assert len(solves) == 2
    assert sum(np.array_equal(mat, Z.vmat) and k == 0 for mat, k in calls) == 1
    assert len(calls) > 2


def test_shtuka_from_element_rejects_shift(cfg, monkeypatch):
    # a minuscule element has no negative exponent, so pm_from_element
    # must return shift 0
    m, _ = PM.pm_from_element(Element((1, 0), (1, 2)))
    monkeypatch.setattr(PM, 'pm_from_element', lambda x: (m, 1))
    with pytest.raises(ConventionError, match='negative exponent'):
        shtuka_from_element(Element((1, 0), (1, 2)), cfg)


def test_bt1_dimension_zero(cfg):
    Z = bt1_of(shtuka_from_element(affine.identity(3), cfg))
    assert Z.dimension == 0
    assert not Z.vmat.any()


def test_bt1_semilinear_twist(cfg):
    # V is sigma^{-1}-semilinear: A·frb(vmat) = t·I mod t^2
    for hd in (HodgeDatum(3, 1), HodgeDatum(4, 2)):
        sh = sample_shtuka(hd, cfg, seed=42)
        Z = bt1_of(sh)
        a0 = PM.pm_coeff(sh.amat, 0)
        a1 = PM.pm_coeff(sh.amat, 1)
        v = cfg.frb[Z.vmat]
        # coefficient 0 of A·sigma(V) vanishes
        assert not PM.gf_mat_mul(a0, v, cfg).any()
        # coefficient 1 is A1·sigma(V) + A0·X1 = I for some X1: every
        # column of I - A1·sigma(V) lies in im A0
        c1 = PM.gf_mat_mul(a1, v, cfg)
        rest = cfg.sub(np.eye(hd.height, dtype=np.int64), c1)
        im_a0 = space_rows(a0.T, cfg)
        assert space_rows(np.vstack([im_a0, rest.T]), cfg).shape == im_a0.shape
        assert Z.dimension == sh.dimension == hd.dimension


def test_graded_bt1_from_beginning(cfg):
    B = cochar_to_beginning((0, 1), 1, 1)
    Z = graded_bt1_from_beginning(B, cfg)
    assert Z.fmat.tolist() == [[0, 0], [1, 0]]
    assert Z.vmat.tolist() == [[0, 0], [1, 0]]
    # all beginnings of all blocks build valid modules
    for n, m in ((1, 2), (2, 1), (2, 3), (3, 1)):
        for lam in enumerate_cochar_block(n, m):
            Bm = cochar_to_beginning(lam, n, m)
            Zm = graded_bt1_from_beginning(Bm, cfg)
            assert Zm.dimension == n


# ------------------------------------------------------- classification

def test_canonical_filtration_is_flag(cfg):
    for seed in range(8):
        sh = sample_shtuka(HodgeDatum(3, 1), cfg, seed=seed)
        Z = bt1_of(sh)
        flag, sig = canonical_filtration(Z)
        dims = [f.shape[0] for f in flag]
        assert dims[0] == 0 and dims[-1] == Z.fmat.shape[0]
        assert dims == sorted(dims)
        assert len(sig) == len(flag)
        assert all(s[0] == d for s, d in zip(sig, dims))


def test_canonical_filtration_rejects_non_chain(cfg):
    # F(whole) = <e1> and V^{-1}(0) = <e2>: four members in dimension 2
    e1 = [[1, 0], [0, 0]]
    with pytest.raises(ConventionError):
        canonical_filtration(Bt1Module(cfg, e1, e1))


@pytest.mark.parametrize('h,d', [(h, d) for h in range(1, 7) for d in range(h + 1)])
def test_eo_classify_fixes_representatives(h, d):
    # the table is built over F_2; the references over F_4 and F_3 share it
    hd = HodgeDatum(h, d)
    _, pairs = mu_and_type(hd)
    for cfg in (field(2, 2), field(3, 1)):
        for w in weyl.min_coset_reps(h, pairs):
            x = eo_representative(hd, w)
            Z = bt1_of(shtuka_from_element(x, cfg))
            assert eo_classify(Z, d) == w


@pytest.mark.parametrize('h', range(1, 8))
def test_reference_types_are_distinct(h):
    # the canonical type separates the reference modules of every stratum
    for d in range(h + 1):
        _, pairs = mu_and_type(HodgeDatum(h, d))
        assert len(bt1._reference_signatures(h, d)) == len(weyl.min_coset_reps(h, pairs))


def test_reference_signatures_reject_shared_type(monkeypatch):
    # a classifier that cannot tell two references apart must raise
    monkeypatch.setattr(bt1, 'canonical_filtration', lambda Z: ((), ((0, 0, 0),)))
    bt1._reference_signatures.cache_clear()
    try:
        with pytest.raises(ConventionError, match='share the canonical type'):
            bt1._reference_signatures(2, 1)
    finally:
        bt1._reference_signatures.cache_clear()


def test_eo_classify_unknown_signature(cfg):
    # a module whose signature matches no reference of that dimension
    Z = graded_bt1_from_beginning(cochar_to_beginning((0, 0), 1, 1), cfg)
    with pytest.raises(ConventionError):
        eo_classify(Z, 0)           # wrong dimension on purpose


def test_classification_is_conjugation_invariant(cfg):
    # classify(bt1(g·A·sigma(g)^{-1})) == classify(bt1(A)) for unimodular g
    hd = HodgeDatum(3, 1)
    for seed in range(6):
        rng = np.random.default_rng([61, seed])
        sh = sample_shtuka(hd, cfg, seed=seed)
        g = random_unimodular(3, cfg, 2, rng)
        gsi = PM.pm_inv_mod(PM.pm_frob(g, cfg, 1), 6, cfg)
        m = PM.pm_truncate(PM.pm_mul(PM.pm_mul(g, sh.amat, cfg), gsi, cfg), 6)
        Z1 = bt1_of(sh)
        Z2 = bt1_of(LocalShtuka(cfg, m))
        assert eo_classify(Z1, 1) == eo_classify(Z2, 1)


# ------------------------------------------------------- newton polygons

def test_newton_polygon_pinned(cfg):
    assert str(newton_polygon_of(shtuka_from_element(Element((1, 0), (1, 2)), cfg))) == '0,1'
    assert str(newton_polygon_of(shtuka_from_element(affine.omega(2), cfg))) == '1/2x2'
    assert str(newton_polygon_of(shtuka_from_element(Element((1,), (1,)), cfg))) == '1'
    assert str(newton_polygon_of(shtuka_from_element(Element((0,), (1,)), cfg))) == '0'


@pytest.mark.parametrize('h', [2, 3, 4, 5])
def test_newton_polygon_of_block_elements(cfg, h):
    # the block-diagonal representative of P has Newton polygon P
    for d in range(h + 1):
        for P in enumerate_polygons(HodgeDatum(h, d)):
            sh = shtuka_from_element(x_of_polygon(P), cfg)
            assert newton_polygon_of(sh) == P


def test_minimal_shtuka(cfg):
    P = parse_polygon('1/2x2')
    sh = minimal_shtuka(P, cfg)
    assert newton_polygon_of(sh) == P
    assert sh.dimension == 1


def test_newton_polygon_sigma_conjugation_invariant(cfg):
    for seed in range(6):
        rng = np.random.default_rng([62, seed])
        sh = sample_shtuka(HodgeDatum(3, 2), cfg, seed=seed)
        g = random_unimodular(3, cfg, 2, rng)
        gsi = PM.pm_inv_mod(PM.pm_frob(g, cfg, 1), 8, cfg)
        m = PM.pm_truncate(PM.pm_mul(PM.pm_mul(g, sh.amat, cfg), gsi, cfg), 8)
        assert newton_polygon_of(LocalShtuka(cfg, m)) == newton_polygon_of(sh)


def _full_precision_polygon(sh):
    # Newton polygon from the exact char poly of the r-fold norm
    from pkernels.shtuka.core import _polygon_of_valuations
    cfg = sh.cfg
    b = sh.amat
    for k in range(1, cfg.r):
        b = PM.pm_mul(b, PM.pm_frob(sh.amat, cfg, k), cfg)
    return _polygon_of_valuations([_valuation(c) for c in PM.pm_char_poly(b, cfg)], cfg.r)


@pytest.mark.parametrize('r', [2, 3])
def test_newton_polygon_precision(r):
    # mod t^(r·d+1) gives the hull of the full-precision char poly, for
    # sampled data and for their sigma-conjugates
    cfg = field(2, r)
    seen = set()
    for h, d in ((3, 1), (3, 2), (4, 2), (5, 2)):
        for seed in range(4):
            rng = np.random.default_rng([84, r, h, d, seed])
            sh = sample_shtuka(HodgeDatum(h, d), cfg, rng=rng)
            g = random_unimodular(h, cfg, 2, rng)
            gsi = PM.pm_inv_mod(PM.pm_frob(g, cfg, 1), 8, cfg)
            m = PM.pm_truncate(PM.pm_mul(PM.pm_mul(g, sh.amat, cfg), gsi, cfg), 8)
            for datum in (sh, LocalShtuka(cfg, m)):
                P = newton_polygon_of(datum)
                assert P == _full_precision_polygon(datum), (r, h, d, seed)
                seen.add(str(P))
    assert len(seen) > 4


def _list_reference_polygon(sh):
    # the list path newton_polygon_of replaced: the norm by r - 1 tensor
    # products mod t^(r·d+1), the list charpoly, and the same hull
    from test_kernels import _charpoly_lists
    from pkernels.shtuka.core import _polygon_of_valuations
    cfg = sh.cfg
    n = cfg.r * sh.dimension + 1
    a = PM.pm_truncate(sh.amat, n)
    b = a
    for k in range(1, cfg.r):
        b = PM.pm_truncate(PM.pm_mul(b, PM.pm_frob(a, cfg, k), cfg), n)
    cp = _charpoly_lists(b, n, cfg.add, cfg.mul, cfg.neg, cfg.inv)
    return _polygon_of_valuations([_valuation(c) for c in cp], cfg.r)


@pytest.mark.parametrize('p,r', [(2, 2), (2, 1), (3, 1)])
def test_newton_polygon_matches_list_path_on_samples(p, r):
    cfg = field(p, r)
    for h, d in ((8, 4), (10, 5)):
        for seed in range(3):
            sh = sample_shtuka(HodgeDatum(h, d), cfg, rng=np.random.default_rng([63, p, r, h, seed]))
            assert newton_polygon_of(sh) == _list_reference_polygon(sh), (h, d, seed)


@pytest.mark.parametrize('p,r', [(2, 2), (3, 2)])
def test_newton_polygon_matches_list_path_on_minimal_data(p, r):
    cfg = field(p, r)
    for h in range(1, 7):
        for d in range(h + 1):
            for P in enumerate_polygons(HodgeDatum(h, d)):
                sh = minimal_shtuka(P, cfg)
                assert newton_polygon_of(sh) == _list_reference_polygon(sh) == P


@pytest.mark.parametrize('p,r', [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 5)])
def test_doubling_norm_matches_product_norm(p, r):
    # _norm takes ceil(log2 r) to 2·floor(log2 r) products; the reference
    # takes r - 1; GF(16) and GF(256) are the fields the doubling is for
    from pkernels.shtuka.core import _norm
    cfg = field(p, r)
    rng = np.random.default_rng([64, p, r])
    for h, n in ((1, 3), (3, 4), (4, 7)):
        a = rng.integers(0, cfg.q, size=(h, h, 3), dtype=np.int64)
        want = PM.pm_truncate(a, n)
        for k in range(1, r):
            want = PM.pm_truncate(PM.pm_mul(want, PM.pm_frob(a, cfg, k), cfg), n)
        lay = PM.packing(cfg, n, h)
        assert _norm(PM.pack_matrix(a, lay), lay, cfg) == PM.pack_matrix(want, lay)


def test_newton_polygon_rejects_wrong_dimension(cfg):
    # a datum whose cached dimension is corrupted from 1 to 2
    sh = sample_shtuka(HodgeDatum(3, 1), cfg, seed=3)
    sh.__dict__['dimension'] = 2
    with pytest.raises(ConventionError, match='does not have height 3 and dimension 2'):
        newton_polygon_of(sh)


def test_oracle_computes_det_once(cfg, monkeypatch):
    # v(det) comes from the datum's one mod-t^2 solve, a (2h, 3h) rref;
    # no determinant is computed: bt1_of runs no characteristic
    # polynomial and newton_polygon_of exactly one, for the sampled datum
    # and for a datum built from its bare matrix
    from pkernels.shtuka import core
    charpolys, solves = [], []
    charpoly = core.K.charpoly
    monkeypatch.setattr(core.K, 'charpoly',
                        lambda m, lay: charpolys.append(len(m)) or charpoly(m, lay))
    rref = core.K.gf_rref
    monkeypatch.setattr(core.K, 'gf_rref', lambda m, *t: solves.append(m.shape) or rref(m, *t))
    for seed in range(3):
        sh = sample_shtuka(HodgeDatum(4, 2), cfg, seed=seed)
        bare = LocalShtuka(cfg, np.array(sh.amat))
        for datum in (sh, bare):
            del solves[:], charpolys[:]
            bt1_of(datum)
            assert charpolys == []
            newton_polygon_of(datum)
            assert charpolys == [4]
            assert datum.dimension == 2
            assert solves.count((8, 12)) == 1


# --------------------------------------------------------- reduction

def _random_element(rng, h, spread=1):
    lam = tuple(int(v) for v in rng.integers(-spread, spread + 1, size=h))
    perm = tuple(int(v) for v in rng.permutation(h) + 1)
    return Element(lam, perm)


@pytest.mark.parametrize('h', [2, 3, 4])
def test_iwahori_class_roundtrip(cfg, h):
    for trial in range(30):
        rng = np.random.default_rng([63, h, trial])
        x = _random_element(rng, h)
        a, s = PM.pm_from_element(x)
        got = iwahori_class_of(a, cfg, shift=s,
                               expected_vdet=x.v_det() + h * s)
        assert got == x


@pytest.mark.parametrize('h', [2, 3, 4, 5])
def test_iwahori_class_invariance(cfg, cfg1, h):
    for c, tag in ((cfg, ()), (cfg1, (1,))):
        for trial in range(20):
            rng = np.random.default_rng([64, h, trial, *tag])
            x = _random_element(rng, h)
            a, s = PM.pm_from_element(x)
            i1 = random_iwahori(h, c, 3, rng)
            i2 = random_iwahori(h, c, 3, rng)
            m = PM.pm_mul(PM.pm_mul(i1, a, c), i2, c)
            assert iwahori_class_of(m, c, shift=s, expected_vdet=x.v_det() + h * s) == x
            assert iwahori_class_of(m, c, shift=s) == x


def test_iwahori_class_singular(cfg):
    a = PM.pm_zeros(2, 2, 3)
    a[0, 0, 1] = 1   # rank 1
    with pytest.raises(ValueError):
        iwahori_class_of(a, cfg)


def _iwahori_class_numpy(amat, cfg, shift=0, expected_vdet=None):
    """The numpy form iwahori_class_of replaced: the same pivots on
    (h, h, n) coefficient tensors, at n = v(det) + 1 with v(det) read off
    the exact determinant when not given."""
    a = np.asarray(amat, dtype=np.int64)
    h = a.shape[0]
    vdet = expected_vdet
    if vdet is None:
        vdet = _valuation(PM.pm_det(a, cfg))
        if vdet is None:
            raise ValueError('singular matrix')
    n = vdet + 1
    a = PM.pm_pad(PM.pm_truncate(a, n), n)
    tables = cfg.add.tolist(), cfg.mul.tolist(), cfg.neg.tolist(), cfg.inv.tolist()
    perm = [None] * h
    lam = [None] * h
    for _ in range(h):
        nz = a != 0
        val = np.where(nz.any(axis=2), nz.argmax(axis=2), n)
        best = int(val.min())
        if best == n:
            raise ValueError('insufficient precision: active block vanishes mod t^%d' % n)
        i0 = int(np.nonzero((val == best).any(axis=1))[0][-1])
        j0 = int(np.nonzero(val[i0] == best)[0][0])
        # c = a[:, j0] / a[i0, j0]: the column shifted down by t^best, times
        # the inverse of the pivot's unit
        uinv = np.array(_series_inv_lists(a[i0, j0, best:].tolist(), n, *tables), dtype=np.int64)
        c = PM.pm_mul(a[:, j0:j0 + 1, best:], uinv[None, None, :], cfg)[:, :, :n]
        a = cfg.add[a, cfg.neg[PM.pm_mul(c, a[i0:i0 + 1], cfg)[:, :, :n]]]
        perm[j0] = i0 + 1
        lam[i0] = best
    if sum(lam) != vdet:
        raise ValueError('pivot valuations sum to %d, determinant has %d' % (sum(lam), vdet))
    return Element(tuple(v - shift for v in lam), tuple(perm))


def _reduce_both(m, cfg, shift=0, vdet=None):
    """The packed reduction's class, checked against the numpy reference;
    None when both raise ValueError."""
    try:
        want = _iwahori_class_numpy(m, cfg, shift, vdet)
    except ValueError:
        want = None
    try:
        got = iwahori_class_of(m, cfg, shift=shift, expected_vdet=vdet)
    except ValueError:
        got = None
    assert got == want, (m.tolist(), shift, vdet)
    return got


@pytest.mark.parametrize('p,r', FIELDS + [(5, 1)])
def test_packed_reduction_matches_numpy_reference(p, r):
    # with and without v(det): i1·x·i2 round trips, sampled data,
    # rank-deficient matrices, and a v(det) one too small
    cfg = field(p, r)
    for trial in range(12):
        rng = np.random.default_rng([65, p, r, trial])
        h = 2 + trial % 4
        x = _random_element(rng, h, spread=2)
        a, s = PM.pm_from_element(x)
        m = PM.pm_mul(PM.pm_mul(random_iwahori(h, cfg, 3, rng), a, cfg),
                      random_iwahori(h, cfg, 3, rng), cfg)
        vdet = x.v_det() + h * s
        assert _reduce_both(m, cfg, s, vdet) == _reduce_both(m, cfg, s) == x
        if vdet:
            assert _reduce_both(m, cfg, s, vdet - 1) is None
    for h in range(1, 7):
        for d in range(h + 1):
            rng = np.random.default_rng([66, p, r, h, d])
            sh = sample_shtuka(HodgeDatum(h, d), cfg, rng=rng)
            got = _reduce_both(sh.amat, cfg, 0, d)
            assert got is not None and got.v_det() == d
            assert _reduce_both(sh.amat, cfg) == got
            if d:
                assert _reduce_both(sh.amat, cfg, 0, d - 1) is None
            # rank at most h - 1: a product through h - 1 columns
            low = PM.pm_mul(rng.integers(0, cfg.q, size=(h, h - 1, 2)),
                            rng.integers(0, cfg.q, size=(h - 1, h, 2)), cfg)
            for vdet in (None, 0, d, 2 * h):
                assert _reduce_both(low, cfg, 0, vdet) is None


def test_orbit_size_is_q_to_length(cfg1):
    # [I : I ∩ xIx^{-1}] = q^{l(x)}
    cases = [
        (affine.omega(2), 1),
        (affine.identity(2), 1),
        (Element((1, 0), (1, 2)), 2),
        (Element((0, 1), (1, 2)), 2),
        (Element((1, 0), (2, 1)), 4),
        (Element((1, -1), (1, 2)), 4),
        (affine.omega(3), 1),
        (Element((1, 0, 0), (1, 2, 3)), 4),
        (Element((1, 0, 0, 0), (2, 1, 3, 4)), 16),
    ]
    for x, want in cases:
        assert iwahori_orbit_size(x, cfg1) == want
        assert want == 2 ** affine.length(x)


def test_orbit_size_q4():
    # same law over F_4
    cfg = field(2, 2)
    for lam, perm in [((1, 0), (1, 2)), ((0, 0, 1), (3, 1, 2)), ((1, 0, 0), (1, 2, 3)),
                      ((0, 1, -1), (2, 1, 3)), ((1, -1, 0), (1, 3, 2)),
                      ((1, 1, 0), (1, 3, 2))]:
        x = Element(lam, perm)
        assert iwahori_orbit_size(x, cfg) == 4 ** affine.length(x), x


def test_orbit_size_rejects_start_without_t_n(cfg1, monkeypatch):
    # diag(t^2, 1) mod t does not contain t·O^2: keys mod t are not exact
    x = Element((2, 0), (1, 2))
    m, s = PM.pm_from_element(x)
    monkeypatch.setattr(PM, 'pm_from_element', lambda _: (m[:, :, :1], s))
    with pytest.raises(ValueError, match='does not contain'):
        iwahori_orbit_size(x, cfg1)


# --------------------------------------------------------- sampling

def test_sample_shtuka_deterministic(cfg):
    a = sample_shtuka(HodgeDatum(3, 1), cfg, seed=5)
    b = sample_shtuka(HodgeDatum(3, 1), cfg, seed=5)
    c = sample_shtuka(HodgeDatum(3, 1), cfg, seed=6)
    assert (a.amat == b.amat).all()
    assert not (a.amat.shape == c.amat.shape and (a.amat == c.amat).all())


def _two_product_sample(hd, cfg, seed, deg=2):
    # the sampler as two products U1·diag(t^mu)·U2, each constant term
    # tested for invertibility by inverting it
    rng = np.random.default_rng(seed)
    h, d = hd.height, hd.dimension
    units = []
    for _ in range(2):
        while True:
            c0 = rng.integers(0, cfg.q, size=(h, h), dtype=np.int64)
            try:
                PM.gf_mat_inv(c0, cfg)
                break
            except ValueError:
                continue
        u = np.zeros((h, h, deg), dtype=np.int64)
        u[:, :, 0] = c0
        u[:, :, 1:] = rng.integers(0, cfg.q, size=(h, h, deg - 1), dtype=np.int64)
        units.append(u)
    mid = PM.pm_zeros(h, h, 2)
    for i in range(h):
        mid[i, i, 1 if i < d else 0] = 1
    return PM.pm_trim(PM.pm_mul(PM.pm_mul(units[0], mid, cfg), units[1], cfg))


def test_sample_shtuka_matches_two_product_reference():
    for p, r in ((2, 2), (3, 1), (2, 3)):
        cfg = field(p, r)
        for h in range(1, 6):
            for d in range(h + 1):
                for seed in range(3):
                    s = [91, p, r, h, d, seed]
                    got = sample_shtuka(HodgeDatum(h, d), cfg, seed=s).amat
                    want = _two_product_sample(HodgeDatum(h, d), cfg, s)
                    assert got.shape == want.shape and (got == want).all(), s


def test_sample_shtuka_lands_in_stratum(cfg):
    for seed in range(10):
        hd = HodgeDatum(3, 2)
        sh = sample_shtuka(hd, cfg, seed=seed)
        assert sh.dimension == 2
        x = iwahori_class_of(sh.amat, cfg)
        assert affine.in_minuscule_double_coset(x, 3, 2)


def test_sigma_conjugate_sample_deterministic(cfg):
    x = Element((0, 1), (2, 1))
    c1 = sigma_conjugate_sample(x, cfg, trials=8, seed=3)
    c2 = sigma_conjugate_sample(x, cfg, trials=8, seed=3)
    assert c1 == c2
    assert sum(c1.values()) == 8
    for cls in c1:
        assert cls.v_det() == x.v_det()


def test_sigma_conjugate_precision_is_exact(cfg):
    # the same trials at precision v(det) + 8, reduced as t^2·m: the
    # central t^2 raises the reduction's own precision from v(det) + 1 to
    # v(det) + 2h + 1, so it reads m mod t^(v(det) + 2h - 1), within the 8
    # digits for h <= 4
    trials, seed = 6, 17
    for h in range(1, 5):
        for d in range(h + 1):
            for P in enumerate_polygons(HodgeDatum(h, d)):
                for prof in enumerate_profiles(P):
                    x = middle_element(prof, P)
                    xm, s = PM.pm_from_element(x)
                    vdet = x.v_det() + h * s
                    n = vdet + 8
                    want = Counter()
                    for tr in range(trials):
                        rng = np.random.default_rng([seed, tr])
                        g = random_unimodular(h, cfg, 2, rng)
                        gsi = PM.pm_inv_mod(PM.pm_frob(g, cfg, 1), n, cfg)
                        m = PM.pm_truncate(PM.pm_mul(PM.pm_mul(g, xm, cfg), gsi, cfg), n)
                        want[iwahori_class_of(PM.pm_shift(m, 2), cfg, shift=s + 2,
                                              expected_vdet=vdet + 2 * h)] += 1
                    assert sigma_conjugate_sample(x, cfg, trials, seed=seed) == want, x


def test_consistency_suite(cfg):
    rep = run_consistency_suite(HodgeDatum(2, 1), cfg, samples=6, seed=0)
    assert rep['ok']
    assert rep['checks']['reference_fixed_points'] == {'pass': 2, 'of': 2}
    assert sum(rep['eo_counts'].values()) == 6
