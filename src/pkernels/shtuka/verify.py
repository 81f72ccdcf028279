r"""Cross-checks between the matrix-level computations.

Everything here is oracle-grade: independent routes to the same value
compared on random inputs.  The CLI exposes the suite; tests reuse its
pieces with fixed seeds.
"""

from collections import Counter

import numpy as np

from ..polygons import HodgeDatum, mu_and_type, eo_representative
from .. import weyl
from .bt1 import eo_classify
from .core import bt1_of, sample_cell, sample_shtuka, shtuka_from_element
from .gf import FieldConfig
from .reduction import iwahori_class_of, random_iwahori
from . import polymat as PM

__all__ = ['run_consistency_suite']


def _check_class_invariance(hd, cfg, rng):
    # the Iwahori class of i1·A·i2 must not depend on the Iwahori factors
    sh = sample_shtuka(hd, cfg, rng=rng)
    cls0 = iwahori_class_of(sh.amat, cfg)
    i1 = random_iwahori(hd.height, cfg, 3, rng)
    i2 = random_iwahori(hd.height, cfg, 3, rng)
    m = PM.pm_mul(PM.pm_mul(i1, sh.amat, cfg), i2, cfg)
    return iwahori_class_of(m, cfg) == cls0


def _check_monomial_roundtrip(hd, cfg, rng):
    # a random monomial minuscule element must reduce to itself
    h, d = hd.height, hd.dimension
    perm = tuple(int(v) + 1 for v in rng.permutation(h))
    pos = sorted(rng.permutation(h)[:d].tolist())
    lam = tuple(1 if i in pos else 0 for i in range(h))
    from ..affine import Element
    x = Element(lam, perm)
    xm, s = PM.pm_from_element(x)
    return iwahori_class_of(xm, cfg, shift=s) == x


def run_consistency_suite(hd: HodgeDatum, cfg: FieldConfig, samples: int = 50,
                          seed: int = 0) -> dict:
    """Random-input agreement checks for one stratum, on sample_cell draws
    and Iwahori factors mod t^3, and eo_classify on the reference modules
    of at most ``samples`` seeded rows (every row when there are fewer);
    returns a report dict with per-check pass counts and an overall flag."""
    _, pairs = mu_and_type(hd)
    reps = weyl.min_coset_reps(hd.height, pairs)
    report = {
        'stratum': (hd.height, hd.dimension),
        'field': (cfg.p, cfg.r),
        'samples': samples,
        'checks': {},
    }
    cells = [sample_cell(hd, cfg, np.random.default_rng([seed, k]))
             for k in range(samples)]
    # sample_cell raises ConventionError on a residue module or a polygon
    # off the stratum, so every sample that returns has passed
    report['checks']['residue_and_polygon'] = {'pass': samples, 'of': samples}
    classes = Counter(w for w, _ in cells)
    report['eo_counts'] = {str(list(w)): c for w, c in sorted(classes.items())}
    report['np_counts'] = dict(sorted(Counter(str(P) for _, P in cells).items()))

    half = max(1, samples // 2)
    for j, (name, check) in enumerate((('iwahori_invariance', _check_class_invariance),
                                       ('monomial_roundtrip', _check_monomial_roundtrip)), 1):
        ok = sum(bool(check(hd, cfg, np.random.default_rng([seed + j, k]))) for k in range(half))
        report['checks'][name] = {'pass': ok, 'of': half}

    if len(reps) > samples:
        picked = np.random.default_rng([seed + 3]).choice(len(reps), samples, replace=False)
        reps = [reps[k] for k in sorted(picked.tolist())]
    ref_ok = sum(eo_classify(bt1_of(shtuka_from_element(eo_representative(hd, w), cfg)),
                             hd.dimension) == w for w in reps)
    report['checks']['reference_fixed_points'] = {'pass': ref_ok, 'of': len(reps)}

    report['ok'] = all(c['pass'] == c['of'] for c in report['checks'].values())
    return report
