"""Pinned answers: tests/golden.json holds sha256 prefixes of the table of
every stratum with h <= 11 (its values, witnesses and searched counts), of
the conftest calibrate() report, and of 20 seeded oracle draws per
stratum with h <= 5 over F_2, F_4, F_3 and F_8, and of the modulus,
tables and Frobenius of every field of order at most gf.MAX_ORDER.  The
test recomputes them all.  A pinned digest moves only with a reason
recorded in CHANGES.md; rewrite the file with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import pathlib

import numpy as np

from pkernels.criterion import calibrate, incidence_table
from pkernels.polygons import HodgeDatum
from pkernels.shtuka import field, gf, sample_cell
from test_gf import ALL_FIELDS

GOLDEN = pathlib.Path(__file__).with_name('golden.json')
TABLE_HEIGHTS = range(1, 12)
DRAW_HEIGHTS = range(1, 6)
DRAW_FIELDS = ((2, 1), (2, 2), (3, 1), (2, 3))
DRAWS = 20
# the arguments of the report fixture in conftest.py
REPORT_ARGS = dict(probes=((2, 1),), samples={(2, 1): 60}, sigma_trials=20)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _strata(heights):
    return [HodgeDatum(h, d) for h in heights for d in range(h + 1)]


def _key(hd) -> str:
    return '%d,%d' % (hd.height, hd.dimension)


def _tables() -> dict:
    out = {}
    for hd in _strata(TABLE_HEIGHTS):
        t = incidence_table(hd)
        out[_key(hd)] = {'values': _digest([t.rows, t.cols, t.values]),
                         'witnesses': _digest(t.witnesses),
                         'searched': _digest(t.searched)}
    return out


def _draws() -> dict:
    out = {}
    for p, r in DRAW_FIELDS:
        cfg = field(p, r)
        out['%d^%d' % (p, r)] = {
            _key(hd): _digest([[list(w), str(P)] for w, P in (
                sample_cell(hd, cfg, np.random.default_rng([p, r, hd.height, hd.dimension, k]))
                for k in range(DRAWS))])
            for hd in _strata(DRAW_HEIGHTS)}
    return out


def _fields() -> dict:
    # built past field's cache, which would keep all 70 fields
    out = {}
    for p, r in ALL_FIELDS:
        f = gf.FieldConfig(p, r)
        out['%d^%d' % (p, r)] = _digest([f.modulus, f.tables, f.frobs])
    return out


def golden(report) -> dict:
    return {'tables': _tables(), 'report': _digest(report), 'draws': _draws(),
            'fields': _fields()}


def test_answers_match_golden(report):
    assert golden(report) == json.loads(GOLDEN.read_text())


if __name__ == '__main__':
    GOLDEN.write_text(json.dumps(golden(calibrate(**REPORT_ARGS)), indent=1, sort_keys=True)
                      + '\n')
