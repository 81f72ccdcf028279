r"""Lifting a graded residue module to a matrix datum over k[[t]].

The basis is indexed by pairs (i, j), i the block index (ascending
slope) and j in the block's beginning set C_i, ordered with j
descending inside each block; write p' < p for "p' comes earlier".  The
operators are built by induction along this order:

* if j + n_i in C_i:   F g_{i,j} = g_{i,j+n_i} + sum a[p'] g_{p'}   over p' < (i, j+n_i)
* else (j - m_i in C_i): F g_{i,j} = t·g_{i,j-m_i} + sum sigma(b[p'])·F g_{p'}  over p' < (i, j)

and dually for V with coefficient families c (twin of the a's) and d
(twin of the b's).  F·sigma(V) = V·sigma^{-1}(F) = t holds for arbitrary
free families (a, b) exactly when c and d are the negated twins

    c[(i,j)] = -b[(i, j+m_i)],    d[(i,j)] = -a[(i, j-n_i)],

whose index ranges coincide pair by pair; explicit (c, d) input is
validated against this and rejected when inconsistent.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConventionError
from ..polygons import NewtonPolygon
from ..semimodules import SemimoduleBeginning, cochar_to_beginning, enumerate_cochar_block
from .bt1 import Bt1Module
from .core import LocalShtuka, bt1_of, newton_polygon_of
from .gf import FieldConfig
from . import polymat as PM

__all__ = [
    'FiltrationData', 'pair_basis', 'random_filtration_data',
    'lift_from_filtration', 'residue_of_filtration', 'verify_lift',
]


def pair_basis(beginnings) -> tuple:
    """All (block, j) pairs in construction order: blocks ascending,
    j descending within each block."""
    out = []
    for i, B in enumerate(beginnings, start=1):
        for j in sorted(B.C, reverse=True):
            out.append((i, j))
    return tuple(out)


def _clean_family(fam, q):
    out = {}
    for p, row in (fam or {}).items():
        row = {p2: int(v) for p2, v in row.items() if int(v)}
        for v in row.values():
            if not 0 <= v < q:
                raise ValueError('coefficient %r is not an element of GF(%d)' % (v, q))
        if row:
            out[tuple(p)] = {tuple(k): v for k, v in row.items()}
    return out


@dataclass(frozen=True, eq=False)
class FiltrationData:
    """Polygon, per-block beginnings, and correction coefficients over
    the field of cfg.  The free families are a and b; c and d are
    derived (explicit values are checked for consistency)."""

    polygon: NewtonPolygon
    beginnings: tuple
    a: dict
    b: dict
    cfg: FieldConfig
    c: dict = None
    d: dict = None

    def __post_init__(self):
        P = self.polygon
        cfg = self.cfg
        begs = tuple(self.beginnings)
        if len(begs) != len(P.blocks):
            raise ValueError('need one beginning per block')
        for B, (n, m) in zip(begs, P.blocks):
            if not isinstance(B, SemimoduleBeginning) or (B.n, B.m) != (n, m):
                raise ValueError('beginning does not match block (%d, %d)' % (n, m))
        object.__setattr__(self, 'beginnings', begs)
        pairs = pair_basis(begs)
        index = {p: k for k, p in enumerate(pairs)}
        a_rng, b_rng = {}, {}
        for (i, j) in pairs:
            n_i, m_i = P.blocks[i - 1]
            C = begs[i - 1].C
            if j + n_i in C:
                a_rng[(i, j)] = frozenset(p for p in pairs if index[p] < index[(i, j + n_i)])
            elif j - m_i in C:
                b_rng[(i, j)] = frozenset(p for p in pairs if index[p] < index[(i, j)])
            else:
                raise ConventionError('beginning is not step-closed at %r' % ((i, j),))
        a = _clean_family(self.a, cfg.q)
        b = _clean_family(self.b, cfg.q)
        for name, fam, rng in (('a', a, a_rng), ('b', b, b_rng)):
            for p, row in fam.items():
                if p not in rng:
                    raise ValueError('%s has a row for %r, which takes no free coefficients'
                                     % (name, p))
                for p2 in row:
                    if p2 not in rng[p]:
                        raise ValueError('%s[%r] refers to %r outside its predecessor range'
                                         % (name, p, p2))
        c_exp, d_exp = {}, {}
        for (i, j) in b_rng:
            _, m_i = P.blocks[i - 1]
            row = b.get((i, j))
            if row:
                c_exp[(i, j - m_i)] = {k: int(cfg.neg[v]) for k, v in row.items()}
        for (i, j) in a_rng:
            n_i, _ = P.blocks[i - 1]
            row = a.get((i, j))
            if row:
                d_exp[(i, j + n_i)] = {k: int(cfg.neg[v]) for k, v in row.items()}
        if self.c is not None and _clean_family(self.c, cfg.q) != c_exp:
            raise ValueError('explicit c coefficients are inconsistent with b')
        if self.d is not None and _clean_family(self.d, cfg.q) != d_exp:
            raise ValueError('explicit d coefficients are inconsistent with a')
        object.__setattr__(self, 'a', a)
        object.__setattr__(self, 'b', b)
        object.__setattr__(self, 'c', c_exp)
        object.__setattr__(self, 'd', d_exp)

    @property
    def pairs(self) -> tuple:
        return pair_basis(self.beginnings)


def random_filtration_data(P: NewtonPolygon, cfg: FieldConfig, seed=None,
                           rng=None, beginnings=None) -> FiltrationData:
    """Random beginnings (unless given) and uniform random free
    coefficients; the dual families are derived."""
    if rng is None:
        rng = np.random.default_rng(seed)
    if beginnings is None:
        begs = []
        for (n, m) in P.blocks:
            lams = enumerate_cochar_block(n, m)
            lam = lams[int(rng.integers(0, len(lams)))]
            begs.append(cochar_to_beginning(lam, n, m))
        beginnings = tuple(begs)
    pairs = pair_basis(beginnings)
    index = {p: k for k, p in enumerate(pairs)}
    a, b = {}, {}
    for (i, j) in pairs:
        n_i, m_i = P.blocks[i - 1]
        C = beginnings[i - 1].C
        if j + n_i in C:
            upto = index[(i, j + n_i)]
            fam, key = a, (i, j)
        else:
            upto = index[(i, j)]
            fam, key = b, (i, j)
        row = {}
        for p2 in pairs[:upto]:
            v = int(rng.integers(0, cfg.q))
            if v:
                row[p2] = v
        if row:
            fam[key] = row
    return FiltrationData(P, tuple(beginnings), a, b, cfg)


def _build_operator(data: FiltrationData, step, back, lin_fam, rec_fam, rec_twist):
    """Shared induction for F (step=n_i, back=m_i, twist=sigma) and V
    (roles of n and m swapped, twist=sigma^{-1})."""
    cfg = data.cfg
    P = data.polygon
    pairs = data.pairs
    index = {p: k for k, p in enumerate(pairs)}
    h = len(pairs)
    cols = {}
    mat = PM.pm_zeros(h, h, 2)
    for (i, j) in pairs:
        n_i, m_i = P.blocks[i - 1]
        s, bk = step(n_i, m_i), back(n_i, m_i)
        C = data.beginnings[i - 1].C
        col = np.zeros((h, 2), dtype=np.int64)
        if j + s in C:
            col[index[(i, j + s)], 0] = 1
            for p2, v in lin_fam.get((i, j), {}).items():
                col[index[p2], 0] = cfg.add[col[index[p2], 0], v]
        elif j - bk in C:
            col[index[(i, j - bk)], 1] = 1
            for p2, v in rec_fam.get((i, j), {}).items():
                col = cfg.add[col, cfg.mul[int(rec_twist[v]), cols[p2]]]
        else:
            raise ConventionError('no forward or backward step at %r' % ((i, j),))
        cols[(i, j)] = col
        mat[:, index[(i, j)], :] = col
    return mat


def _operators(data: FiltrationData):
    fmat = _build_operator(data, lambda n, m: n, lambda n, m: m,
                           data.a, data.b, data.cfg.frb)
    vmat = _build_operator(data, lambda n, m: m, lambda n, m: n,
                           data.c, data.d, data.cfg.frbi)
    return fmat, vmat


def lift_from_filtration(data: FiltrationData) -> LocalShtuka:
    """The matrix datum of the filtered lift; raises if the exchange
    identities F·sigma(V) = V·sigma^{-1}(F) = t fail."""
    cfg = data.cfg
    fmat, vmat = _operators(data)
    h = fmat.shape[0]
    tI = PM.pm_shift(PM.pm_eye(h), 1)
    fv = PM.pm_trim(PM.pm_mul(fmat, PM.pm_frob(vmat, cfg, 1), cfg))
    vf = PM.pm_trim(PM.pm_mul(vmat, PM.pm_frob(fmat, cfg, -1), cfg))
    if not (PM.pm_equal(fv, tI) and PM.pm_equal(vf, tI)):
        raise ConventionError('exchange identities fail for the assembled lift')
    return LocalShtuka(cfg, PM.pm_trim(fmat))


def residue_of_filtration(data: FiltrationData) -> Bt1Module:
    """The residue module assembled directly from the combinatorial data
    (without going through the lift and its mod-t^2 solve)."""
    fmat, vmat = _operators(data)
    return Bt1Module(data.cfg, PM.pm_coeff(fmat, 0), PM.pm_coeff(vmat, 0)).check()


def _block_slices(data: FiltrationData):
    out = []
    k = 0
    for B in data.beginnings:
        size = len(B.C)
        out.append(slice(k, k + size))
        k += size
    return out


def verify_lift(data: FiltrationData) -> dict:
    """Checks on the assembled lift: residue matches the direct assembly,
    block triangularity, diagonal blocks isoclinic, polygon recovered.
    Returns {name: bool}."""
    sh = lift_from_filtration(data)
    cfg = data.cfg
    out = {}
    Z = bt1_of(sh)
    Zdirect = residue_of_filtration(data)
    out['residue'] = (np.array_equal(Z.fmat, Zdirect.fmat)
                      and np.array_equal(Z.vmat, Zdirect.vmat))
    sl = _block_slices(data)
    tri = True
    for bi in range(len(sl)):
        for bj in range(len(sl)):
            if bi > bj and sh.amat[sl[bi], sl[bj]].any():
                tri = False
    out['block_triangular'] = tri
    iso = True
    for bi, (n, m) in enumerate(data.polygon.blocks):
        blk = np.ascontiguousarray(sh.amat[sl[bi], sl[bi]])
        Pb = newton_polygon_of(LocalShtuka(cfg, blk))
        iso = iso and Pb.blocks == ((n, m),)
    out['isoclinic_blocks'] = iso
    out['polygon'] = newton_polygon_of(sh) == data.polygon
    return out
