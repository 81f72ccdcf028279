r"""The incidence table: which residue-module classes meet which Newton
strata, decided inside the extended affine Weyl group.

A cell (w, P) is nonempty exactly when the Iwahori double coset I·x_w·I
of the row's representative x_w = eo_representative(hd, w) meets the
Newton stratum of P (Viehmann, *Truncations of level 1 of elements in the
loop group of a reductive group*, Ann. Math. 2014).  The reduction
affine.newton_strata lists every stratum I·x·I meets, so one reduction
decides a whole row.

Only the local-local rows need it.  Read a row w of (h, d) as its 0/1
word, letter i being 1 when w(i) <= d.  A word 0^e·c·1^f with e + f > 0
is the row of c at (h - e - f, d - f) with e slopes 0 and f slopes 1
added: the étale and multiplicative parts split off (Demazure, *Lectures
on p-divisible groups*, LNM 302).  A word from 1 to 0 with 2d > h is the
Cartier dual of the row of its reversed complement at (h, h - d): each
block (n, m) becomes (m, n).  So the engine reduces the local-local rows
with 2d <= h alone, C(h - 2, d - 1) of them at (h, d), and lifts_to and
incidence_table read every row through one bounded store.

calibrate checks these answers against the matrix oracle and raises on
any disagreement, and returns the evidence as a report.  Every answer
carries a provenance record: the library version, the engine and the
seed of the oracle check it was given, if any.
"""

import json
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from . import affine, polygons, weyl
from .affine import Element
from .errors import ConventionError, ResourceLimitError, integers
from .polygons import (HodgeDatum, NewtonPolygon, enumerate_polygons, mu_and_type,
                       parse_polygon)
from .semimodules import enumerate_profiles, middle_element

__version__ = '0.3.0'

ENGINE = 'deligne-lusztig-reduction'

__all__ = [
    'Bounds', 'IncidenceTable', 'lifts_to', 'adlv_nonempty',
    'incidence_table', 'calibrate',
]


@dataclass(frozen=True)
class Bounds:
    """Resource limits, each at least 1 (ValueError otherwise); exceeding
    either raises ResourceLimitError.

    max_height caps the height of a query, max_support the number of
    elements one reduction explores, checked also on a tree found in
    the engine's shared memo; a row in the row store answers only the
    max_support it was computed under.
    """

    max_height: int = 12
    max_support: int = 500_000

    def __post_init__(self):
        for name in ('max_height', 'max_support'):
            value, = integers(getattr(self, name))
            if value < 1:
                raise ValueError('%s must be at least 1, got %d' % (name, value))
            object.__setattr__(self, name, value)

    def check_height(self, h):
        if h > self.max_height:
            raise ResourceLimitError('height %d exceeds bound %d' % (h, self.max_height))


# ------------------------------------------------------------- engine

def _witness(points: dict, P: NewtonPolygon):
    """The minimal-length element the reduction reached P at, or None."""
    y = points.get(P.blocks)
    return None if y is None else {'y': affine._as_dict(y)}


def _provenance(check) -> dict:
    """What produced an answer: this version, the engine, and the seed of
    the calibrate() report ``check`` (None without one)."""
    return {'version': __version__, 'engine': ENGINE,
            'seed': check['seed'] if check else None}


def _answer(done: tuple, P: NewtonPolygon, check, return_info: bool):
    points, explored = done
    if not return_info:
        return P.blocks in points
    wit = _witness(points, P)
    return wit is not None, {'witness': wit, 'searched': explored,
                             'provenance': _provenance(check)}


# the row store of lifts_to and incidence_table: the (points, explored)
# of each checked query (h, d, w, max_support), in the form
# affine._newton_blocks returns.  explored is within the entry's bound, so
# a hit is not checked again: the engine checks a core row, and a derived
# row carries its core's count (1 for an empty core).  It has room for
# every row of every stratum with h <= 12 (8190) and is cleared when full;
# only _row adds entries, and it writes nothing into affine._memo
_ROWS_MAX = 1 << 13
_rows = {}


def _row(h: int, d: int, w: tuple, limit: int) -> tuple:
    """(points, explored) of the row w of (h, d), a minimal coset
    representative, through the row store."""
    key = h, d, w, limit
    done = _rows.get(key)
    if done is None:
        done = _derive(h, d, w, limit)
        if len(_rows) >= _ROWS_MAX:
            _rows.clear()
        _rows[key] = done
    return done


def _derive(h: int, d: int, w: tuple, limit: int) -> tuple:
    """A row's (points, explored), by the route its word 0^e·c·1^f picks.

    Split (e + f > 0): the points of the core c at (h - e - f, d - f),
    each with e blocks (0, 1) in front and f blocks (1, 0) behind, its
    witness the block sum of e copies of ε^0, the core's witness and f
    copies of ε^1; an empty core is the one point () of one element.
    Dual (2d > h): the points of the reversed complement w0·w·w0 at
    (h, h - d), each block (n, m) swapped to (m, n) and the order
    reversed, which sorts it by slope again; the witness y becomes
    w0·ε·y^(-T)·w0, lam'_i = 1 - lam_(h+1-i) and
    perm'(j) = h + 1 - u(h + 1 - j), of the same length and minimal
    length.  A derived row keeps its core's explored count.  Core
    (2d <= h): the engine on the row's point x_w."""
    e = f = 0
    while e < h and w[e] > d:
        e += 1
    while f < h - e and w[h - 1 - f] <= d:
        f += 1
    if e or f:
        n = h - e - f
        points, explored = {(): ()}, 1
        if n:
            core = tuple(v if v <= d else v - e - f for v in w[e:h - f])
            points, explored = _row(n, d - f, core, limit)
        head, tail = ((0, 1),) * e, ((1, 0),) * f
        lam0, lam1 = (0,) * e, (1,) * f
        perm0, perm1 = tuple(range(1, e + 1)), tuple(range(h - f + 1, h + 1))
        return {head + blocks + tail:
                lam0 + y[:n] + lam1 + perm0 + tuple(e + u for u in y[n:]) + perm1
                for blocks, y in points.items()}, explored
    if 2 * d > h:
        points, explored = _row(h, h - d, tuple(h + 1 - v for v in reversed(w)), limit)
        return {tuple((m, n) for n, m in reversed(blocks)):
                tuple(1 - v for v in reversed(y[:h])) + tuple(h + 1 - u for u in reversed(y[h:]))
                for blocks, y in points.items()}, explored
    return affine._newton_blocks(polygons._eo_coding(h, d, w), limit)


def lifts_to(hd: HodgeDatum, w, P: NewtonPolygon, check: dict = None,
             bounds: Bounds = Bounds(), return_info: bool = False):
    """Whether the class of w meets the stratum of P, i.e. whether P is in
    B(x_w).  ``check`` is a report calibrate() returned, or None; it is
    recorded, never consulted.  With return_info, also the witness (None
    for an empty cell), the number of elements the reduction of the row
    or of its core explored and the provenance.  Every query reads the
    bounded row store, keyed by (h, d, w, max_support), so a hit was
    checked under the same bound; no answer depends on it.  A row is
    checked to be a minimal coset representative only when the store
    does not hold it."""
    h, d = hd.height, hd.dimension
    if (P.height, P.dimension) != (h, d):
        raise ValueError('polygon %s does not lie in stratum (%d, %d)' % (P, h, d))
    bounds.check_height(h)
    w = integers(*w)
    done = _rows.get((h, d, w, bounds.max_support))
    if done is None:
        done = _row(h, d, polygons._minimal_rep(hd, w), bounds.max_support)
    return _answer(done, P, check, return_info)


def adlv_nonempty(x: Element, P: NewtonPolygon, check: dict = None,
                  bounds: Bounds = Bounds(), return_info: bool = False):
    """Whether I·x·I meets the Newton stratum of P, i.e. whether the affine
    Deligne-Lusztig variety X_x(b_P) is nonempty (x must be minuscule of
    the polygon's height and dimension).  ``check`` and return_info as
    for lifts_to; x is reduced by the engine, through its bounded memo of
    reduction subtrees, on which ``max_support`` is checked too."""
    h, d = P.height, P.dimension
    if x.h != h or not affine.in_minuscule_double_coset(x, h, d):
        raise ValueError('x is not in the minuscule stratum of (%d, %d)' % (h, d))
    bounds.check_height(h)
    return _answer(affine._newton_blocks(x.lam + x.perm, bounds.max_support), P, check,
                   return_info)


@dataclass(frozen=True)
class IncidenceTable:
    """Full table of a stratum: rows are minimal coset representatives,
    columns are Newton polygons, entries booleans.  ``provenance`` names
    the version, the engine and the seed of the oracle check."""

    hodge: tuple
    rows: tuple
    cols: tuple
    values: tuple
    witnesses: dict
    searched: dict
    provenance: dict

    def cell(self, w, P) -> bool:
        """The value at row w and column P, a NewtonPolygon or any
        spelling parse_polygon accepts; ValueError names a missing one.

        >>> t = incidence_table(HodgeDatum(2, 1))
        >>> t.cell((1, 2), '1/2 x2'), t.cell((1, 2), '0,1')
        (True, False)
        """
        w = integers(*w)
        col = str(P if isinstance(P, NewtonPolygon) else parse_polygon(P))
        if w not in self.rows:
            raise ValueError('no row %s in the table of %s' % (list(w), self.hodge))
        if col not in self.cols:
            raise ValueError('no column %s in the table of %s' % (col, self.hodge))
        return self.values[self.rows.index(w)][self.cols.index(col)]

    def to_json(self) -> str:
        out = {
            'provenance': self.provenance,
            'hodge': list(self.hodge),
            'rows': [list(w) for w in self.rows],
            'cols': list(self.cols),
            'values': [[bool(v) for v in row] for row in self.values],
            'witnesses': {k: v for k, v in sorted(self.witnesses.items())},
            'searched': {k: v for k, v in sorted(self.searched.items())},
        }
        return json.dumps(out, sort_keys=True, indent=2) + '\n'

    def to_csv(self) -> str:
        import csv
        import io
        buf = io.StringIO()
        buf.write('# provenance: %s\n' % json.dumps(self.provenance, sort_keys=True))
        wr = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator='\n')
        wr.writerow(['w\\P'] + list(self.cols))
        for w, row in zip(self.rows, self.values):
            wr.writerow([json.dumps(list(w))] + ['1' if v else '0' for v in row])
        return buf.getvalue()


def _cell_key(w, P) -> str:
    """'[1, 2, 3]|P', the row spelled as json.dumps spells a list of ints."""
    return '[%s]|%s' % (', '.join(map(str, w)), P)


def incidence_table(hd: HodgeDatum, check: dict = None,
                    bounds: Bounds = Bounds()) -> IncidenceTable:
    """The full table of a stratum, every row read through the row store.
    Nonempty cells carry their witness, empty ones the size of the
    exhausted reduction of the row or of its core.
    ``check`` is a report calibrate() returned, or None; only its seed is
    recorded, in the provenance."""
    bounds.check_height(hd.height)
    h, d, limit = hd.height, hd.dimension, bounds.max_support
    _, pairs = mu_and_type(hd)
    rows = tuple(weyl.min_coset_reps(h, pairs))
    cols = enumerate_polygons(hd)
    names = tuple(str(P) for P in cols)
    values = []
    witnesses = {}
    searched = {}
    for w in rows:
        points, explored = _row(h, d, w, limit)
        row_key = _cell_key(w, '')
        row = []
        for P, name in zip(cols, names):
            wit = _witness(points, P)
            row.append(wit is not None)
            if wit is None:
                searched[row_key + name] = explored
            else:
                witnesses[row_key + name] = wit
        values.append(tuple(row))
    return IncidenceTable(
        hodge=(hd.height, hd.dimension),
        rows=rows,
        cols=names,
        values=tuple(values),
        witnesses=witnesses,
        searched=searched,
        provenance=_provenance(check),
    )


# -------------------------------------------------------- calibration

KNOWN_CELLS = (
    # elliptic curves: (height, dim), row w, polygon string, expected value
    ((2, 1), (1, 2), '1/2x2', True),
    ((2, 1), (2, 1), '0,1', True),
    ((2, 1), (1, 2), '0,1', False),
    ((2, 1), (2, 1), '1/2x2', False),
)

SIGMA_POLYGON = '1/2x2'


def _oracle_draws(hds, counts, P, cfg, seed, trials) -> list:
    """One _keyed_map over the cell (w, str(Q)) of each draw k < count of
    sample_cells per stratum, then the class lam + perm of each trial
    tr < trials of sigma_conjugate_sample per middle element of P."""
    from .shtuka.core import _cell_draw, _keyed_map, _sigma_trial

    def cell(hd, k):
        w, Q = _cell_draw(hd, cfg, seed, k)
        return w, str(Q)

    def conjugate(trial, tr):
        x = trial(tr)
        return x.lam + x.perm

    work = [(cell, hd, k) for hd, count in zip(hds, counts) for k in range(count)]
    sigma = [_sigma_trial(middle_element(prof, P), cfg, seed) for prof in enumerate_profiles(P)]
    work += [(conjugate, trial, tr) for trial in sigma for tr in range(trials)]
    # equal results share one object, here and through a child's marshal,
    # which writes a repeat as a reference: the 2000 default draws take
    # only 10 distinct values
    seen = {}

    def draw(j):
        f, a, k = work[j]
        x = f(a, k)
        return seen.setdefault(x, x)
    return _keyed_map(draw, len(work))


def calibrate(probes=None, samples=None, seed: int = 20240801, cfg=None,
              sigma_trials: int = 200) -> dict:
    """Check the engine against ground truth and the matrix oracle.

    The four height-2 cells must match elliptic curves, every (class,
    polygon) pair the oracle samples on the probe strata must be a
    nonempty cell, and every Iwahori class reached by sigma-conjugating
    the middle elements of the polygon 1/2x2 ``sigma_trials`` times each
    must meet that polygon's stratum.  Before any sampling it raises
    ResourceLimitError on a probe above the height bound, TypeError on a
    seed, count or probe entry that is no integer and ValueError on an
    empty probe list, a probe that is no stratum or a count below one;
    ConventionError on any disagreement.  Otherwise returns the report of
    the evidence, which lifts_to, adlv_nonempty and incidence_table
    accept as ``check``.
    """
    from .shtuka import field
    cfg = cfg or field(2, 2)
    seed, sigma_trials = integers(seed, sigma_trials)
    if probes is None:
        probes = ((2, 1), (3, 1), (3, 2))
    probes = tuple(tuple(p) for p in probes)
    hds = []
    for h, d in probes:
        Bounds().check_height(h)
        hds.append(HodgeDatum(h, d))
    if samples is None:
        samples = {p: (1000 if p == (2, 1) else 300) for p in probes}
    elif not isinstance(samples, dict):
        samples = dict.fromkeys(probes, samples)
    samples = dict(zip(samples, integers(*samples.values())))
    for p in probes:
        if p not in samples:
            raise ValueError('calibrate has no sample count for probe %r' % (p,))
    if not probes or sigma_trials < 1 or min(samples[p] for p in probes) < 1:
        raise ValueError('calibrate needs at least one probe, one sample per probe and one '
                         'sigma trial, got probes=%r, samples=%r, sigma_trials=%r'
                         % (probes, samples, sigma_trials))

    violations = []
    for hdt, w, ps, expect in KNOWN_CELLS:
        if lifts_to(HodgeDatum(*hdt), w, parse_polygon(ps)) != expect:
            violations.append({'cell': [list(hdt), list(w), ps], 'expected': expect,
                               'why': 'ground truth'})
    P = parse_polygon(SIGMA_POLYGON)
    got = iter(_oracle_draws(hds, [samples[p] for p in probes], P, cfg, seed, sigma_trials))
    observed = {}
    for p, hd in zip(probes, hds):
        observed[p] = Counter(islice(got, samples[p]))
        table = incidence_table(hd)
        for (w, ps), cnt in sorted(observed[p].items()):
            if not table.cell(w, ps):
                violations.append({'cell': [list(p), list(w), ps], 'expected': True,
                                   'why': 'observed x%d' % cnt})
    classes = Counter(Element(c[:P.height], c[P.height:]) for c in got)
    for x, cnt in classes.items():
        if not adlv_nonempty(x, P):
            violations.append({'class': x.to_dict(), 'np': SIGMA_POLYGON, 'expected': True,
                               'why': 'sigma-conjugate x%d' % cnt})
    if violations:
        raise ConventionError('the reduction disagrees with the oracle: %s'
                              % json.dumps(violations, sort_keys=True))
    return {
        'probes': [list(p) for p in probes],
        'samples': {str(list(p)): samples[p] for p in probes},
        'seed': seed,
        'field': [cfg.p, cfg.r],
        'ground_truth': [[list(hdt), list(w), ps, expect]
                         for hdt, w, ps, expect in KNOWN_CELLS],
        'observed': {str(list(p)): {_cell_key(w, ps): c for (w, ps), c in sorted(obs.items())}
                     for p, obs in observed.items()},
        'sigma': {
            'np': SIGMA_POLYGON,
            'trials': sum(classes.values()),
            'classes': {json.dumps(x.to_dict(), sort_keys=True): c
                        for x, c in classes.items()},
        },
    }
