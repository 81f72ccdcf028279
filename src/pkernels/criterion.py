r"""The incidence table: which residue-module classes meet which Newton
strata, decided inside the extended affine Weyl group.

A cell (w, P) is nonempty exactly when the Iwahori double coset I·x_w·I
of the row's representative x_w = eo_representative(hd, w) meets the
Newton stratum of P (Viehmann, *Truncations of level 1 of elements in the
loop group of a reductive group*, Ann. Math. 2014).  The reduction
affine.newton_strata lists every stratum I·x·I meets, so one reduction
decides a whole row.

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
    the engine's shared memo.
    """

    max_height: int = 11
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


def _answer(c: tuple, P: NewtonPolygon, check, bounds: Bounds, return_info: bool):
    bounds.check_height(len(c) >> 1)
    points, explored = affine._newton_blocks(c, bounds.max_support)
    if not return_info:
        return P.blocks in points
    wit = _witness(points, P)
    return wit is not None, {'witness': wit, 'searched': explored,
                             'provenance': _provenance(check)}


def lifts_to(hd: HodgeDatum, w, P: NewtonPolygon, check: dict = None,
             bounds: Bounds = Bounds(), return_info: bool = False):
    """Whether the class of w meets the stratum of P, i.e. whether P is in
    B(x_w).  ``check`` is a report calibrate() returned, or None; it is
    recorded, never consulted.  With return_info, also the witness (None
    for an empty cell), the number of elements the reduction explored and
    the provenance.  Every query shares the engine's bounded memo of
    reduction subtrees; no answer depends on it, and ``max_support`` is
    checked on its hits too."""
    if (P.height, P.dimension) != (hd.height, hd.dimension):
        raise ValueError('polygon %s does not lie in stratum (%d, %d)'
                         % (P, hd.height, hd.dimension))
    c = polygons._eo_coding(hd.height, hd.dimension, polygons._minimal_rep(hd, w))
    return _answer(c, P, check, bounds, return_info)


def adlv_nonempty(x: Element, P: NewtonPolygon, check: dict = None,
                  bounds: Bounds = Bounds(), return_info: bool = False):
    """Whether I·x·I meets the Newton stratum of P, i.e. whether the affine
    Deligne-Lusztig variety X_x(b_P) is nonempty (x must be minuscule of
    the polygon's height and dimension).  ``check``, return_info and the
    shared memo as for lifts_to."""
    h, d = P.height, P.dimension
    if x.h != h or not affine.in_minuscule_double_coset(x, h, d):
        raise ValueError('x is not in the minuscule stratum of (%d, %d)' % (h, d))
    return _answer(x.lam + x.perm, P, check, bounds, return_info)


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
    """The full table of a stratum, one reduction per row.  Nonempty cells
    carry their witness, empty ones the size of the exhausted reduction.
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
        points, explored = affine._newton_blocks(polygons._eo_coding(h, d, w), limit)
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
