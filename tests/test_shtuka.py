"""Local shtukas: residues, classification, Newton polygons, reduction."""

from collections import Counter
import itertools

import numpy as np
import pytest

from pkernels import _kernels as K
from pkernels import affine
from pkernels.affine import Element
from pkernels.errors import ConventionError, ResourceLimitError
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
from pkernels.shtuka import reduction
from pkernels.shtuka.reduction import random_iwahori
from pkernels import weyl
from conftest import arrays
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


def _span(rows, h, cfg):
    """Every vector of the span of rows in F_q^h, as tuples."""
    out = set()
    for coeffs in itertools.product(range(cfg.q), repeat=len(rows)):
        v = np.zeros(h, dtype=np.int64)
        for c, r in zip(coeffs, rows):
            v = arrays(cfg).add[v, arrays(cfg).mul[c, r]]
        out.add(tuple(int(e) for e in v))
    return out


def _matvec(mat, x, cfg):
    ADD, MUL = cfg.tables[:2]
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, x):
            acc = ADD[acc][MUL[a][b]]
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
                    u = np.eye(h, dtype=np.int64).tolist()
                else:
                    u = space_rows(rng.integers(0, cfg.q, size=(k, h), dtype=np.int64).tolist(),
                                   cfg)
                span_u = _span(u, h, cfg)
                Z = Bt1Module(cfg, f, v)
                cases = [
                    (v_preimage(Z, u), lambda x: _matvec(v, arrays(cfg).frbi[x], cfg) in span_u),
                    (bt1._image_preimage(f.tolist(), (), cfg)[1],
                     lambda x: not any(_matvec(f, x, cfg))),
                ]
                for got, member in cases:
                    assert got == space_rows(got, cfg)
                    want = {tuple(int(e) for e in x) for x in vectors if member(x)}
                    assert _span(got, h, cfg) == want, (h, k, trial)


def test_preimage_of_dependent_rows(cfg):
    # h rows spanning less than the whole space are taken as their span,
    # not as the whole space
    Z = Bt1Module(cfg, np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64))
    assert v_preimage(Z, [[1, 0], [1, 0]]) == ((1, 0),)
    assert v_preimage(Z, ((1, 0), (1, 0))) == ((1, 0),)


def test_bt1_of_diag_t_1(cfg):
    Z = bt1_of(shtuka_from_element(Element((1, 0), (1, 2)), cfg))
    assert Z.fmat == ((0, 0), (0, 1))
    assert Z.vmat == ((1, 0), (0, 0))
    assert Z.dimension == 1


def test_bt1_of_omega(cfg):
    Z = bt1_of(shtuka_from_element(affine.omega(2), cfg))
    assert Z.fmat == ((0, 1), (0, 0))
    assert Z.vmat == ((0, 1), (0, 0))


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
                    u1 = np.array(random_unimodular(h, cfg, 2, rng))
                    u2 = np.array(random_unimodular(h, cfg, 2, rng))
                    mu = np.diag([1] * d + [0] * (h - d))
                    want = K.gf_matmul(
                        K.gf_matmul(np.array(PM.gf_mat_inv(u2[:, :, 0], cfg)), mu, cfg),
                        np.array(PM.gf_mat_inv(u1[:, :, 0], cfg)), cfg)
                    Z = bt1_of(sh)
                    assert np.array_equal(Z.fmat, np.array(sh.amat)[:, :, 0])
                    assert np.array_equal(arrays(cfg).frb[np.array(Z.vmat)], want), \
                        (p, r, h, d, seed)
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


def _count_preimages(monkeypatch):
    # (matrix, dim U) for each preimage bt1 takes, one rref each; those
    # with U = 0 are the solves that give a matrix's image and kernel
    calls = []
    preimage = bt1._image_preimage
    monkeypatch.setattr(bt1, '_image_preimage', lambda mat, u, c: calls.append(
        (mat, len(u))) or preimage(mat, u, c))
    return calls


def test_bt1_image_of_f_is_computed_once(cfg, monkeypatch):
    # bt1_of runs check() and reads dimension, a second check() is
    # remembered, eo_classify walks the canonical filtration from the
    # whole space: im F comes from the one solve on fmat, and F of the
    # whole space is never formed; the sample's type is classified once
    # first, so the memo answers and no reference module is counted
    eo_classify(bt1_of(sample_shtuka(HodgeDatum(3, 1), cfg, seed=3)), 1)
    calls = _count_preimages(monkeypatch)
    whole = []
    f_image = bt1.f_image
    monkeypatch.setattr(bt1, 'f_image', lambda Z, u: whole.append(
        np.array_equal(np.array(u, dtype=np.int64).reshape(len(u), Z.h),
                       np.eye(Z.h, dtype=np.int64))) or f_image(Z, u))
    Z = bt1_of(sample_shtuka(HodgeDatum(3, 1), cfg, seed=3))
    assert Z.dimension == 1 and Z.check() is Z
    eo_classify(Z, 1)
    solves = [mat for mat, k in calls if k == 0]
    assert sum(np.array_equal(mat, Z.fmat) for mat in solves) == 1
    assert whole and not any(whole)


def test_bt1_kernel_of_v_is_computed_once(cfg, monkeypatch):
    # check() compares im F with ker V, and the canonical filtration
    # starts from V^{-1}(0) = ker V: both read the one solve on vmat, and
    # every other preimage the filtration takes is of a nonzero subspace
    eo_classify(bt1_of(sample_shtuka(HodgeDatum(3, 1), cfg, seed=3)), 1)
    calls = _count_preimages(monkeypatch)
    Z = bt1_of(sample_shtuka(HodgeDatum(3, 1), cfg, seed=3))
    eo_classify(Z, 1)
    solves = [mat for mat, k in calls if k == 0]
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
    assert not any(map(any, Z.vmat))


def test_bt1_semilinear_twist(cfg):
    # V is sigma^{-1}-semilinear: A·frb(vmat) = t·I mod t^2
    for hd in (HodgeDatum(3, 1), HodgeDatum(4, 2)):
        sh = sample_shtuka(hd, cfg, seed=42)
        Z = bt1_of(sh)
        a0 = np.array(PM.pm_coeff(sh.amat, 0))
        a1 = np.array(PM.pm_coeff(sh.amat, 1))
        v = arrays(cfg).frb[np.array(Z.vmat)]
        # coefficient 0 of A·sigma(V) vanishes
        assert not K.gf_matmul(a0, v, cfg).any()
        # coefficient 1 is A1·sigma(V) + A0·X1 = I for some X1: every
        # column of I - A1·sigma(V) lies in im A0
        c1 = K.gf_matmul(a1, v, cfg)
        rest = arrays(cfg).add[np.eye(hd.height, dtype=np.int64), arrays(cfg).neg[c1]]
        im_a0 = space_rows(a0.T.tolist(), cfg)
        assert len(space_rows(im_a0 + tuple(rest.T.tolist()), cfg)) == len(im_a0)
        assert Z.dimension == sh.dimension == hd.dimension


def test_graded_bt1_from_beginning(cfg):
    B = cochar_to_beginning((0, 1), 1, 1)
    Z = graded_bt1_from_beginning(B, cfg)
    assert Z.fmat == ((0, 0), (1, 0))
    assert Z.vmat == ((0, 0), (1, 0))
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
        dims = [len(f) for f in flag]
        assert dims[0] == 0 and dims[-1] == len(Z.fmat)
        assert dims == sorted(dims)
        assert len(sig) == len(flag)
        assert all(s[0] == d for s, d in zip(sig, dims))


def test_canonical_filtration_rejects_non_chain(cfg):
    # F(whole) = <e1> and V^{-1}(0) = <e2>: four members in dimension 2
    e1 = [[1, 0], [0, 0]]
    with pytest.raises(ConventionError):
        canonical_filtration(Bt1Module(cfg, e1, e1))
    # h = 3, F = V = E_11: the members 0, <e1>, <e2, e3>, whole are few
    # enough, but <e1> does not lie in <e2, e3>
    e11 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    with pytest.raises(ConventionError, match='not totally ordered'):
        canonical_filtration(Bt1Module(cfg, e11, e11))


def _reference_module(hd, w, cfg):
    # the residue module of x_w, by the datum route eo_classify does not take
    return bt1_of(shtuka_from_element(eo_representative(hd, w), cfg))


@pytest.mark.parametrize('h,d', [(h, d) for h in range(1, 7) for d in range(h + 1)])
def test_eo_classify_fixes_representatives(h, d):
    # the reading is checked over F_2; the references over F_4 and F_3
    # have the same types
    hd = HodgeDatum(h, d)
    _, pairs = mu_and_type(hd)
    for cfg in (field(2, 2), field(3, 1)):
        for w in weyl.min_coset_reps(h, pairs):
            assert eo_classify(_reference_module(hd, w, cfg), d) == w


@pytest.mark.parametrize('h', range(1, 9))
def test_reference_types_are_distinct(h):
    # every reference module over F_2 reads back its own w, and the
    # canonical type separates the reference modules of every stratum
    for d in range(h + 1):
        hd = HodgeDatum(h, d)
        reps = weyl.min_coset_reps(h, mu_and_type(hd)[1])
        types = set()
        for w in reps:
            Z = _reference_module(hd, w, field(2, 1))
            assert eo_classify(Z, d) == w
            types.add(canonical_filtration(Z)[1])
        assert len(types) == len(reps)


def test_eo_classify_refuses_a_type_that_reads_no_word():
    # dim F rises by 1 over two steps: neither flat nor one per step,
    # although the count of letters would fit d = 0
    with pytest.raises(ConventionError, match='reads no word'):
        bt1._reference_signatures(((0, 0, 0), (2, 1, 2), (3, 2, 3)), 0)


def test_eo_classify_unknown_signature(cfg):
    # a module whose signature matches no reference of that dimension
    Z = graded_bt1_from_beginning(cochar_to_beginning((0, 0), 1, 1), cfg)
    with pytest.raises(ConventionError, match='no word of dimension 0'):
        eo_classify(Z, 0)           # wrong dimension on purpose
    assert eo_classify(Z, 1) == (1, 2)
    with pytest.raises(TypeError):
        eo_classify(Z, 1.0)


def test_eo_classify_refuses_a_type_its_word_does_not_have():
    # the dims of V^{-1} play no part in the reading: changing one keeps
    # the word (2, 3, 1) of (3, 1), and the check on its reference refuses it
    hd, w = HodgeDatum(3, 1), (2, 3, 1)
    sig = canonical_filtration(_reference_module(hd, w, field(2, 1)))[1]
    assert bt1._reference_signatures(sig, 1) == w
    (a, fa, va), rest = sig[1], sig[2:]
    bad = sig[:1] + ((a, fa, va + 1),) + rest
    with pytest.raises(ConventionError, match=r'is not that of \(2, 3, 1\)'):
        bt1._reference_signatures(bad, 1)


def test_classification_is_conjugation_invariant(cfg):
    # classify(bt1(g·A·sigma(g)^{-1})) == classify(bt1(A)) for unimodular g
    hd = HodgeDatum(3, 1)
    for seed in range(6):
        rng = np.random.default_rng([61, seed])
        sh = sample_shtuka(hd, cfg, seed=seed)
        g = np.array(random_unimodular(3, cfg, 2, rng))
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
        g = np.array(random_unimodular(3, cfg, 2, rng))
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
            g = np.array(random_unimodular(h, cfg, 2, rng))
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
    t = arrays(cfg)
    cp = _charpoly_lists(np.array(b), n, t.add, t.mul, t.neg, t.inv)
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
        lay = K.Packing(cfg, n, h)
        assert _norm(PM.pack_matrix(a, lay), lay, cfg) == PM.pack_matrix(want, lay)


def test_newton_polygon_rejects_wrong_dimension(cfg):
    # a datum whose cached dimension is corrupted from 1 to 2
    sh = sample_shtuka(HodgeDatum(3, 1), cfg, seed=3)
    sh.__dict__['dimension'] = 2
    with pytest.raises(ConventionError, match='does not have height 3 and dimension 2'):
        newton_polygon_of(sh)


def test_oracle_packs_with_the_fields_packings():
    # newton_polygon_of, iwahori_class_of and pm_inv_mod take their
    # Packings from the field: repeated calls build none
    from pkernels.shtuka import gf
    cfg = gf.FieldConfig(2, 2)
    keys, built = [], []
    packing = cfg.packing

    def counted(n, terms):
        keys.append((n, terms))
        built.append((n, terms) not in cfg._packings)
        return packing(n, terms)

    object.__setattr__(cfg, 'packing', counted)
    for seed in range(4):
        sh = sample_shtuka(HodgeDatum(3, 1), cfg, seed=seed)
        newton_polygon_of(sh)
        iwahori_class_of(sh.amat, cfg)
        g = np.array(random_unimodular(3, cfg, 2, np.random.default_rng(seed)))
        PM.pm_inv_mod(g, 5, cfg)
    assert len(keys) == 12 and sum(built) == len(set(keys)) == 3


def test_oracle_computes_det_once(cfg, monkeypatch):
    # v(det) comes from the datum's one mod-t^2 solve, a (2h, 3h) rref on lists;
    # no determinant is computed: bt1_of runs no characteristic
    # polynomial and newton_polygon_of exactly one, for the sampled datum
    # and for a datum built from its bare matrix
    from pkernels.shtuka import core
    charpolys, solves = [], []
    charpoly = core.K.charpoly
    monkeypatch.setattr(core.K, 'charpoly',
                        lambda m, lay: charpolys.append(len(m)) or charpoly(m, lay))
    rref = core.K.rref_rows
    monkeypatch.setattr(core.K, 'rref_rows', lambda m, c: solves.append(
        (len(m), len(m[0]) if m else 0)) or rref(m, c))
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
    a = np.zeros((2, 2, 3), dtype=np.int64)
    a[0, 0, 1] = 1   # rank 1
    with pytest.raises(ValueError):
        iwahori_class_of(a, cfg)


@pytest.mark.parametrize('bad', [-1, 4])
def test_entries_outside_the_field_are_rejected(bad):
    # over F_4 a table lookup would read -1 as element 3 (a negative
    # index wraps) and raise IndexError on 4: all four inputs reject both
    cfg = field(2, 2)
    amat = np.array(PM.pm_from_element(Element((0, 1), (1, 2)))[0])     # diag(1, t)
    amat[0, 1, 0] = bad
    with pytest.raises(ValueError, match='field indices'):
        LocalShtuka(cfg, amat)
    with pytest.raises(ValueError, match='field indices'):
        iwahori_class_of(amat, cfg)
    with pytest.raises(ValueError, match='field indices'):
        reduction.lattice_key(amat, cfg, 2)
    one, f = np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64)
    f[0, 1] = bad
    for fmat, vmat in ((f, one), (one, f)):
        with pytest.raises(ValueError, match='field indices'):
            Bt1Module(cfg, fmat, vmat)


@pytest.mark.parametrize('shape', [(2, 2), (2, 3, 2), (2, 3, 1), (2, 2, 0), (2, 2, 1, 1),
                                   [[(1,), (1,)], [(1,)]], [[(1,), (1, 1)], [(1,), (1,)]]])
def test_data_that_are_no_square_tensors_are_rejected(shape):
    # a matrix datum is an (h, h, D) tensor with D >= 1, h rows of h
    # coefficient sequences of one length D; anything else used to fail
    # later, or be called singular.  The last two are ragged lists: a
    # short row, and an entry with one coefficient too many
    cfg = field(2, 2)
    amat = np.ones(shape, dtype=np.int64) if isinstance(shape, tuple) else shape
    with pytest.raises(ValueError, match=r'\(h, h, D\) tensor.*shape \(2'):
        LocalShtuka(cfg, amat)
    with pytest.raises(ValueError, match=r'\(h, h, D\) tensor.*shape \(2'):
        iwahori_class_of(amat, cfg)
    with pytest.raises(ValueError, match=r'\(h, h, D\) tensor.*shape \(2'):
        reduction.lattice_key(amat, cfg, 1)


def _iwahori_class_numpy(amat, cfg, shift=0, expected_vdet=None):
    """The numpy form iwahori_class_of replaced: the same pivots on
    (h, h, n) coefficient tensors, at n = v(det) + 1 with v(det) read off
    the exact determinant when not given."""
    a = np.asarray(amat, dtype=np.int64)
    h = a.shape[0]
    vdet = expected_vdet
    if vdet is None:
        vdet = _valuation(PM.pm_char_poly(a, cfg)[0])     # v(det(-a)) = v(det(a))
        if vdet is None:
            raise ValueError('singular matrix')
    n = vdet + 1
    a = a[:, :, :n]
    a = np.pad(a, ((0, 0), (0, 0), (0, n - a.shape[2])))
    tables = cfg.tables
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
        c = np.array(PM.pm_mul(a[:, j0:j0 + 1, best:], uinv[None, None, :], cfg))[:, :, :n]
        cr = np.array(PM.pm_mul(c, a[i0:i0 + 1], cfg))[:, :, :n]
        a = arrays(cfg).add[a, arrays(cfg).neg[cr]]
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
    assert got == want, (np.asarray(m).tolist(), shift, vdet)
    return got


@pytest.mark.parametrize('p,r', FIELDS + [(5, 1)])
def test_packed_reduction_matches_numpy_reference(p, r):
    # with and without v(det): i1·x·i2 round trips, pivots with dense
    # units, sampled data, rank-deficient matrices, and a v(det) one too
    # small
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
    # pivot units with four nonzero terms: u·x·d for u upper unitriangular
    # over F_q and d diagonal in T(O), each unit's coefficients all
    # nonzero; the entry of a column of x·d is the unit that u leaves on
    # its pivot, and the rows above it hold scalar multiples to clear
    for trial in range(8):
        rng = np.random.default_rng([67, p, r, trial])
        h = 2 + trial % 4
        x = _random_element(rng, h, spread=2)
        a, s = PM.pm_from_element(x)
        units = rng.integers(1, cfg.q, size=(h, 4)).tolist()
        d = [[tuple(units[i]) if i == j else (0,) * 4 for j in range(h)] for i in range(h)]
        u = [[(int(rng.integers(0, cfg.q)) if j > i else int(i == j),) for j in range(h)]
             for i in range(h)]
        m = PM.pm_mul(PM.pm_mul(u, a, cfg), d, cfg)
        vdet = x.v_det() + h * s
        assert _reduce_both(m, cfg, s, vdet) == _reduce_both(m, cfg, s) == x
    for h in range(1, 7):
        for d in range(h + 1):
            rng = np.random.default_rng([66, p, r, h, d])
            sh = sample_shtuka(HodgeDatum(h, d), cfg, rng=rng)
            got = _reduce_both(sh.amat, cfg, 0, d)
            assert got is not None and got.v_det() == d
            assert _reduce_both(sh.amat, cfg) == got
            if d:
                assert _reduce_both(sh.amat, cfg, 0, d - 1) is None
            # rank at most h - 1: a product through h - 1 columns; at h = 1
            # the (1, 1, 3) zero matrix it is, since rows cannot carry the
            # shape of a factor with no columns
            f = rng.integers(0, cfg.q, size=(h, h - 1, 2))
            g = rng.integers(0, cfg.q, size=(h - 1, h, 2))
            low = PM.pm_mul(f, g, cfg) if h > 1 else np.zeros((1, 1, 3), dtype=np.int64)
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


ORBIT_SET_CAP = 9           # l <= 3 over F_2, l <= 2 over F_3, l <= 1 over F_4: about 1.5 s
ORBIT_CASES = [((1, 0), (1, 2)), ((0, 0, 1), (3, 1, 2)), ((1, 0, 0), (1, 2, 3)),
               ((0, 1, -1), (2, 1, 3)), ((1, -1, 0), (1, 3, 2)), ((1, 1, 0), (1, 3, 2))]


def test_orbit_size_q4():
    # same law over F_4
    cfg = field(2, 2)
    for lam, perm in ORBIT_CASES:
        x = Element(lam, perm)
        assert iwahori_orbit_size(x, cfg) == 4 ** affine.length(x), x


def test_orbit_size_q3():
    # and over F_3, where the coefficient 2 of a root subgroup is a product of two 1s
    cfg = field(3, 1)
    for lam, perm in ORBIT_CASES:
        x = Element(lam, perm)
        assert iwahori_orbit_size(x, cfg) == 3 ** affine.length(x), x


@pytest.mark.parametrize('pr', [(2, 1), (3, 1), (2, 2)])
def test_orbit_count_keys_only_products_that_change_a_column(pr, monkeypatch):
    # one key for the start, then one per generator product that changes a
    # column of its factor: a product that changes none is the same coset
    cfg = field(*pr)
    calls = Counter()
    key_rows, row_op = reduction._key_rows, reduction._row_op

    def counted_key_rows(*args):
        calls['keys'] += 1
        return key_rows(*args)

    def counted_row_op(cols, gen, n, cfg):
        out = row_op(cols, gen, n, cfg)
        calls['products'] += 1
        calls['changed'] += out != cols
        return out

    monkeypatch.setattr(reduction, '_key_rows', counted_key_rows)
    monkeypatch.setattr(reduction, '_row_op', counted_row_op)
    for lam, perm in ORBIT_CASES:
        x = Element(lam, perm)
        calls.clear()
        assert iwahori_orbit_size(x, cfg) == cfg.q ** affine.length(x), x
        assert calls['keys'] == 1 + calls['changed'], x
    assert calls['changed'] < calls['products']


def test_orbit_size_limit(cfg1):
    one, two = affine.identity(2), Element((1, 0), (1, 2))
    assert iwahori_orbit_size(one, cfg1, limit=1) == 1
    assert iwahori_orbit_size(two, cfg1, limit=2) == 2
    with pytest.raises(ResourceLimitError, match='exceeds 1 cosets'):
        iwahori_orbit_size(two, cfg1, limit=1)
    for bad in (0, -5):
        with pytest.raises(ValueError, match='at least 1'):
            iwahori_orbit_size(one, cfg1, limit=bad)
    with pytest.raises(TypeError):
        iwahori_orbit_size(one, cfg1, limit=1.5)


def test_lattice_key_refuses_a_precision_below_one():
    # a negative n would slice the columns from their end, and n = 0
    # would key every matrix by empty parts
    cfg = field(2, 1)
    m = PM.pm_from_element(Element((1, 0), (2, 1)))[0]
    assert len(reduction.lattice_key(m, cfg, 1)) == 2
    for bad in (0, -1):
        with pytest.raises(ValueError, match='at least 1'):
            reduction.lattice_key(m, cfg, bad)
    with pytest.raises(TypeError):
        reduction.lattice_key(m, cfg, 2.0)


def test_pm_truncate_takes_an_integer_order():
    # a float order raises instead of failing inside slicing; numpy ints
    # are accepted
    m = PM.pm_from_element(Element((1, 0), (2, 1)))[0]
    assert PM.pm_truncate(m, np.int64(1)) == PM.pm_truncate(m, 1)
    with pytest.raises(TypeError, match='interpreted as an integer'):
        PM.pm_truncate(m, 2.0)
    with pytest.raises(ValueError):
        PM.pm_truncate(m, 0)


def _eye(h, deg1):
    g = np.zeros((h, h, deg1), dtype=np.int64)
    g[np.arange(h), np.arange(h), 0] = 1
    return g


def _elementary_generators(h, cfg, depth):
    # the orbit count's generators as elementary matrices 1 + c·t^a·E_ij,
    # in its order, c over the additive basis: for h >= 3 the simple
    # affine roots, for h = 2 every positive affine root of depth <= depth
    if h >= 3:
        roots = [(i, i + 1, 0) for i in range(h - 1)] + [(h - 1, 0, 1)][:depth]
    elif h == 2:
        roots = [(0, 1, a) for a in range(depth + 1)] + [(1, 0, a) for a in range(1, depth + 1)]
    else:
        roots = []
    gens = []
    for i, j, a in roots:
        for c in cfg.basis():
            g = _eye(h, a + 1)
            g[i, j, a] = c
            gens.append(g)
    return gens


@pytest.mark.parametrize('pr', [(2, 1), (2, 2), (3, 1)])
def test_row_op_generators_match_matrix_products(pr):
    cfg = field(*pr)
    rng = np.random.default_rng([61, cfg.q])
    for h, n in [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2)]:
        gens = reduction._generators(h, cfg, n - 1)
        mats = _elementary_generators(h, cfg, n - 1)
        assert len(gens) == len(mats)
        m = rng.integers(0, cfg.q, size=(h, h, n), dtype=np.int64)
        cols = reduction._columns(m, n)
        for gen, g in zip(gens, mats):
            want = PM.pm_truncate(PM.pm_mul(g, m, cfg), n)
            assert reduction._row_op(cols, gen, n, cfg) == reduction._columns(want, n), gen
        assert reduction._columns(m, n) == cols      # the input is not written into


def _reference_orbit_keys(x, cfg):
    # the lattice keys of the I-orbit of xI mod t^N, by a search over a
    # plainly generating set of I mod t^N as elementary matrices: every
    # off-diagonal 1 + c·t^a·E_ij, 1 + c·t^a·E_ii for a >= 1, and
    # diag(..., c, ...) for every nonzero c other than 1
    start, _ = PM.pm_from_element(x)
    h, n = x.h, len(start[0][0])
    gens = []
    for i in range(h):
        for j in range(h):
            for a in range(0 if i < j else 1, n):
                for c in cfg.basis():
                    g = _eye(h, a + 1)
                    g[i, j, a] = c
                    gens.append(g)
        for c in range(2, cfg.q):
            g = _eye(h, 1)
            g[i, i, 0] = c
            gens.append(g)
    seen = {reduction.lattice_key(start, cfg, n)}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                m2 = PM.pm_truncate(PM.pm_mul(g, m, cfg), n)
                if m2 == m:
                    continue
                k = reduction.lattice_key(m2, cfg, n)
                if k not in seen:
                    seen.add(k)
                    nxt.append(m2)
        frontier = nxt
    return seen


@pytest.mark.parametrize('pr', [(2, 1), (3, 1), (2, 2)])
def test_root_subgroup_orbits_match_a_plain_generating_set(pr, monkeypatch):
    # the orbit count's search over the affine root subgroups reaches the
    # same set of cosets as a search over all of I mod t^N: every x with
    # h <= 3 and lam in {-1, 0, 1}^h whose orbit has at most ORBIT_SET_CAP cosets
    cfg = field(*pr)
    reached = set()
    key_rows = reduction._key_rows

    def recorded_key_rows(cols, h, n, cfg):
        reached.add(tuple(tuple(tuple(col[r * n:r * n + n]) for col in cols) for r in range(h)))
        return key_rows(cols, h, n, cfg)

    checked = 0
    for h in (1, 2, 3):
        for lam in itertools.product((-1, 0, 1), repeat=h):
            for perm in itertools.permutations(range(1, h + 1)):
                x = Element(lam, perm)
                if cfg.q ** affine.length(x) > ORBIT_SET_CAP:
                    continue
                reached.clear()
                with monkeypatch.context() as patched:     # lattice_key reads _key_rows too
                    patched.setattr(reduction, '_key_rows', recorded_key_rows)
                    size = iwahori_orbit_size(x, cfg)
                n = len(PM.pm_from_element(x)[0][0][0])
                keys = {reduction.lattice_key(m, cfg, n) for m in reached}
                assert size == len(keys) == cfg.q ** affine.length(x), x
                assert keys == _reference_orbit_keys(x, cfg), x
                checked += 1
    assert checked > 0


@pytest.mark.parametrize('pr', [(2, 1), (2, 2), (3, 1)])
def test_nested_keys_match_one_rref_per_lattice(pr):
    # the parts j' >= j of the key span S_j, the span of t^k·c over the
    # columns c of m·Lambda_j: k < n for c < h-j, 1 <= k < n for the
    # others; each span built from scratch.  Part h-1 is in rref, and each
    # earlier part is at most one row, leading with 1 and zero at every
    # pivot of the later parts
    cfg = field(*pr)
    rng = np.random.default_rng([62, cfg.q])
    for trial in range(40):
        h, n = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        m = rng.integers(0, cfg.q, size=(h, h, n), dtype=np.int64)
        if trial % 2:       # a coset g·x of an orbit count
            x = Element(tuple(int(v) for v in rng.integers(0, n, size=h)),
                        tuple(int(v) + 1 for v in rng.permutation(h)))
            m = PM.pm_mul(random_iwahori(h, cfg, n, rng), PM.pm_from_element(x)[0], cfg)
        a = np.array(PM.pm_truncate(m, n))
        a = np.pad(a, ((0, 0), (0, 0), (0, n - a.shape[2])))
        want = []
        for j in range(h):
            span = [[0] * (h * n)]
            for c in range(h):
                for k in range(0 if c < h - j else 1, n):
                    shifted = np.zeros((h, n), dtype=np.int64)
                    shifted[:, k:] = a[:, c, :n - k]
                    span.append(shifted.ravel().tolist())
            red, rank = K.gf_rref(np.array(span, dtype=np.int64), cfg)
            want.append(red[:rank].tobytes())
        # one byte per entry
        parts = [np.frombuffer(k, dtype=np.uint8).astype(np.int64).reshape(-1, h * n)
                 for k in reduction.lattice_key(m, cfg, n)]
        for j in range(h):
            stacked = np.vstack([np.zeros((1, h * n), dtype=np.int64)] + parts[j:])
            red, rank = K.gf_rref(stacked, cfg)
            assert red[:rank].tobytes() == want[j], (trial, j)
        red, rank = K.gf_rref(parts[-1], cfg)
        assert rank == len(parts[-1]) and (red == parts[-1]).all(), trial
        pivots = [int(np.flatnonzero(row)[0]) for row in parts[-1]]
        for part in parts[-2::-1]:
            assert len(part) <= 1, trial
            for row in part:
                lead = int(np.flatnonzero(row)[0])
                assert row[lead] == 1 and not row[pivots].any(), trial
                pivots.append(lead)


def test_orbit_size_rejects_start_without_t_n(cfg1, monkeypatch):
    # diag(t^2, 1) mod t does not contain t·O^2: keys mod t are not exact
    x = Element((2, 0), (1, 2))
    m, s = PM.pm_from_element(x)
    monkeypatch.setattr(PM, 'pm_from_element', lambda _: (PM.pm_truncate(m, 1), s))
    with pytest.raises(ValueError, match='does not contain'):
        iwahori_orbit_size(x, cfg1)


# --------------------------------------------------------- sampling

def test_sample_shtuka_deterministic(cfg):
    a = sample_shtuka(HodgeDatum(3, 1), cfg, seed=5)
    b = sample_shtuka(HodgeDatum(3, 1), cfg, seed=5)
    c = sample_shtuka(HodgeDatum(3, 1), cfg, seed=6)
    assert a.amat == b.amat
    assert a.amat != c.amat


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
    mid = np.zeros((h, h, 2), dtype=np.int64)
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
                    assert got == want, s


@pytest.mark.parametrize('deg', [0, -3])
def test_degree_below_one_is_refused(cfg, deg):
    # every sampling route draws its factors through random_unimodular
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match='degree must be at least 1'):
        random_unimodular(3, cfg, deg, rng)
    with pytest.raises(ValueError, match='degree must be at least 1'):
        sample_shtuka(HodgeDatum(3, 1), cfg, deg=deg, seed=0)
    with pytest.raises(ValueError, match='degree must be at least 1'):
        random_iwahori(3, cfg, deg, rng)
    with pytest.raises(TypeError):
        random_unimodular(3, cfg, 2.0, rng)
    with pytest.raises(TypeError):
        random_iwahori(3, cfg, 2.0, rng)
    assert np.array(random_unimodular(3, cfg, 1, rng)).shape == (3, 3, 1)


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
                        g = np.array(random_unimodular(h, cfg, 2, rng))
                        gsi = PM.pm_inv_mod(PM.pm_frob(g, cfg, 1), n, cfg)
                        m = PM.pm_truncate(PM.pm_mul(PM.pm_mul(g, xm, cfg), gsi, cfg), n)
                        m2 = np.pad(m, ((0, 0), (0, 0), (2, 0)))      # t^2·m
                        want[iwahori_class_of(m2, cfg, shift=s + 2,
                                              expected_vdet=vdet + 2 * h)] += 1
                    assert sigma_conjugate_sample(x, cfg, trials, seed=seed) == want, x


def test_consistency_suite(cfg):
    rep = run_consistency_suite(HodgeDatum(2, 1), cfg, samples=6, seed=0)
    assert rep['ok']
    assert rep['checks']['reference_fixed_points'] == {'pass': 2, 'of': 2}
    assert sum(rep['eo_counts'].values()) == 6


def test_consistency_suite_checks_at_most_samples_rows(cfg, monkeypatch):
    # (10, 5) has 252 rows; samples = 2 builds two reference modules
    from pkernels.shtuka import verify
    calls = []
    bt1_of = verify.bt1_of
    monkeypatch.setattr(verify, 'bt1_of', lambda sh: calls.append(sh) or bt1_of(sh))
    rep = run_consistency_suite(HodgeDatum(10, 5), cfg, samples=2, seed=0)
    assert rep['ok'] and len(calls) == 2
    assert rep['checks']['reference_fixed_points'] == {'pass': 2, 'of': 2}


# --------------------------------------------------------- one form

def _numpy_objects(obj, path='out', seen=None):
    """The paths of every numpy array or scalar reachable from obj through
    containers and stored attributes (cached properties included)."""
    seen = set() if seen is None else seen
    if id(obj) in seen or callable(obj) and not hasattr(obj, '__dataclass_fields__'):
        return []
    seen.add(id(obj))
    if isinstance(obj, (np.ndarray, np.generic)):
        return [path]
    if isinstance(obj, dict):
        items = [(path + '[%r]' % (k,), v) for k, v in obj.items()]
        items += [(path + '.key', k) for k in obj]
    elif isinstance(obj, (tuple, list, set, frozenset)):
        items = [(path + '[%d]' % i, v) for i, v in enumerate(obj)]
    else:
        items = [(path + '.' + k, v) for k, v in getattr(obj, '__dict__', {}).items()]
    return [p for sub, v in items for p in _numpy_objects(v, sub, seen)]


def test_oracle_returns_and_stores_no_numpy_objects(cfg):
    # every entry point of the matrix oracle hands back, and keeps, the
    # one matrix form: tuples of Python ints, never an ndarray or a numpy
    # scalar, also where its input was drawn with numpy
    from pkernels.shtuka import lift_from_filtration, random_filtration_data
    hd = HodgeDatum(4, 2)
    sh = sample_shtuka(hd, cfg, seed=1)
    Z = bt1_of(sh)
    outputs = {'datum': sh, 'module': Z, 'class': eo_classify(Z, 2),
               'polygon': newton_polygon_of(sh)}
    rng = np.random.default_rng(2)
    i1 = random_iwahori(4, cfg, 2, rng)
    m = PM.pm_mul(PM.pm_mul(i1, sh.amat, cfg), random_iwahori(4, cfg, 2, rng), cfg)
    outputs.update(iwahori=i1, product=m, reduced=iwahori_class_of(m, cfg),
                   inverse=PM.pm_inv_mod(i1, 3, cfg), charpoly=PM.pm_char_poly(m, cfg),
                   monomial=PM.pm_from_element(Element((1, 0, -1), (2, 3, 1))),
                   key=reduction.lattice_key(m, cfg, 3),
                   lift=lift_from_filtration(random_filtration_data(
                       parse_polygon('1/2x2,0'), cfg, seed=0)))
    assert _numpy_objects(outputs) == []
    assert _numpy_objects({'a': [np.int64(1)]}) == ["out['a'][0]"]     # the walk sees them
