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

whose index ranges coincide pair by pair; so c and d are always derived
from (a, b), never given.  _steps is the one place that decides each
step: forward or back, its target, and which earlier pairs its free
coefficients may use.  The families' checks, their twins, the random
draws and both operators read its table.  The operators are h rows of
[t^0, t^1] coefficient pairs built on the field's list tables, and the
exchange identities are two polynomial matrix products of one operator
with the other's Frobenius twist (polymat.pm_mul, polymat.pm_frob).
"""

from dataclasses import dataclass, field
from itertools import accumulate

from ..errors import ConventionError, integers
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
    return tuple((i, j) for i, B in enumerate(beginnings, start=1)
                 for j in sorted(B.C, reverse=True))


def _steps(P: NewtonPolygon, beginnings, dual=False):
    """(pairs, steps), one step (pair, target, forward, upto) per pair in
    construction order.  F steps forward to (i, j+n_i) when that is in
    C_i and otherwise back to (i, j-m_i); V (dual) swaps n_i and m_i.
    The step's free coefficients may use pairs[:upto].  Raises
    ValueError unless there is one matching beginning per block."""
    if len(beginnings) != len(P.blocks):
        raise ValueError('need one beginning per block')
    for B, (n, m) in zip(beginnings, P.blocks):
        if not isinstance(B, SemimoduleBeginning) or (B.n, B.m) != (n, m):
            raise ValueError('beginning does not match block (%d, %d)' % (n, m))
    pairs = pair_basis(beginnings)
    index = {p: k for k, p in enumerate(pairs)}
    steps = []
    for k, (i, j) in enumerate(pairs):
        n, m = P.blocks[i - 1][::-1] if dual else P.blocks[i - 1]
        C = beginnings[i - 1].C
        if j + n in C:
            steps.append(((i, j), (i, j + n), True, index[(i, j + n)]))
        elif j - m in C:
            steps.append(((i, j), (i, j - m), False, k))
        else:
            raise ConventionError('no forward or backward step at %r' % ((i, j),))
    return pairs, tuple(steps)


def _clean_family(fam, q):
    out = {}
    for p, row in (fam or {}).items():
        row = dict(zip(map(tuple, row), integers(*row.values())))
        for v in row.values():
            if not 0 <= v < q:
                raise ValueError('coefficient %r is not an element of GF(%d)' % (v, q))
        row = {p2: v for p2, v in row.items() if v}
        if row:
            out[tuple(p)] = row
    return out


@dataclass(frozen=True, eq=False)
class FiltrationData:
    """Polygon, per-block beginnings, and correction coefficients over
    the field of cfg.  The free families are a and b; c and d are
    their negated twins, set on construction with the pairs."""

    polygon: NewtonPolygon
    beginnings: tuple
    a: dict
    b: dict
    cfg: FieldConfig
    c: dict = field(init=False)
    d: dict = field(init=False)
    pairs: tuple = field(init=False)

    def __post_init__(self):
        begs = tuple(self.beginnings)
        pairs, steps = _steps(self.polygon, begs)
        step = {p: (forward, upto) for p, _, forward, upto in steps}
        a, b = _clean_family(self.a, self.cfg.q), _clean_family(self.b, self.cfg.q)
        for name, fam, forward in (('a', a, True), ('b', b, False)):
            for p, row in fam.items():
                if step.get(p, (None,))[0] is not forward:
                    raise ValueError('%s has a row for %r, which takes no free coefficients'
                                     % (name, p))
                for p2 in row:
                    if p2 not in pairs[:step[p][1]]:
                        raise ValueError('%s[%r] refers to %r outside its predecessor range'
                                         % (name, p, p2))
        c, d = {}, {}
        NEG = self.cfg.tables[2]
        for p, target, forward, _ in steps:
            row = (a if forward else b).get(p)
            if row:
                (d if forward else c)[target] = {k: NEG[v] for k, v in row.items()}
        for name, value in (('beginnings', begs), ('a', a), ('b', b), ('c', c), ('d', d),
                            ('pairs', pairs)):
            object.__setattr__(self, name, value)


def random_filtration_data(P: NewtonPolygon, cfg: FieldConfig, rng,
                           beginnings=None) -> FiltrationData:
    """Random beginnings (unless given) and uniform random free
    coefficients, drawn from rng; the dual families are derived."""
    if beginnings is None:
        beginnings = []
        for (n, m) in P.blocks:
            lams = enumerate_cochar_block(n, m)
            beginnings.append(cochar_to_beginning(lams[rng.integers(0, len(lams)).tolist()], n, m))
    beginnings = tuple(beginnings)
    pairs, steps = _steps(P, beginnings)
    a, b = {}, {}
    for p, _, forward, upto in steps:
        row = {}
        for p2 in pairs[:upto]:
            v = rng.integers(0, cfg.q).tolist()
            if v:
                row[p2] = v
        if row:
            (a if forward else b)[p] = row
    return FiltrationData(P, beginnings, a, b, cfg)


def _build_operator(data: FiltrationData, dual):
    """The induction of the module docstring: F from the families a, b
    and sigma, or V (dual) from c, d and sigma^{-1}; h rows of h
    [t^0, t^1] coefficient pairs."""
    cfg = data.cfg
    ADD, MUL = cfg.tables[:2]
    lin_fam, rec_fam = (data.c, data.d) if dual else (data.a, data.b)
    twist = cfg.frobs[1 if dual else 0]
    pairs, steps = _steps(data.polygon, data.beginnings, dual)
    index = {p: k for k, p in enumerate(pairs)}
    cols = []
    for p, target, forward, _ in steps:
        col = [[0, 0] for _ in pairs]
        col[index[target]][0 if forward else 1] = 1
        if forward:
            for p2, v in lin_fam.get(p, {}).items():
                col[index[p2]][0] = v          # p2 comes before the target
        else:
            for p2, v in rec_fam.get(p, {}).items():
                mv, prev = MUL[twist[v]], cols[index[p2]]
                col = [[ADD[x][mv[y]] for x, y in zip(e, e2)] for e, e2 in zip(col, prev)]
        cols.append(col)
    return list(zip(*cols))


def _operators(data: FiltrationData):
    return _build_operator(data, False), _build_operator(data, True)


def lift_from_filtration(data: FiltrationData) -> LocalShtuka:
    """The matrix datum of the filtered lift; raises if the exchange
    identities F·sigma(V) = V·sigma^{-1}(F) = t fail."""
    cfg = data.cfg
    fmat, vmat = _operators(data)
    h = len(fmat)
    t_eye = tuple(tuple((0, int(i == j), 0) for j in range(h)) for i in range(h))
    for a, b, k in ((fmat, vmat, 1), (vmat, fmat, -1)):
        if PM.pm_mul(a, PM.pm_frob(b, cfg, k), cfg) != t_eye:
            raise ConventionError('exchange identities fail for the assembled lift')
    return LocalShtuka(cfg, PM.pm_trim(fmat))


def residue_of_filtration(data: FiltrationData) -> Bt1Module:
    """The residue module assembled directly from the combinatorial data
    (without going through the lift and its mod-t^2 solve): the t^0
    coefficients of F and V."""
    fmat, vmat = _operators(data)
    return Bt1Module(data.cfg, [[e[0] for e in row] for row in fmat],
                     [[e[0] for e in row] for row in vmat]).check()


def verify_lift(data: FiltrationData) -> dict:
    """Checks on the assembled lift: residue matches the direct assembly,
    block triangularity, diagonal blocks isoclinic, polygon recovered.
    Returns {name: bool}."""
    sh = lift_from_filtration(data)
    Z, Zdirect = bt1_of(sh), residue_of_filtration(data)
    blocks = data.polygon.blocks
    edges = (0, *accumulate(n + m for n, m in blocks))
    sl = [slice(s, e) for s, e in zip(edges, edges[1:])]
    diag = [newton_polygon_of(LocalShtuka(data.cfg, [row[s] for row in sh.amat[s]]))
            for s in sl]
    return {
        'residue': (Z.fmat, Z.vmat) == (Zdirect.fmat, Zdirect.vmat),
        'block_triangular': not any(c for bi in range(len(sl)) for bj in range(bi)
                                    for row in sh.amat[sl[bi]] for e in row[sl[bj]] for c in e),
        'isoclinic_blocks': all(Pb.blocks == (b,) for Pb, b in zip(diag, blocks)),
        'polygon': newton_polygon_of(sh) == data.polygon,
    }
