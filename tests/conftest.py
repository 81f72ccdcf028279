from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from pkernels import calibrate
from pkernels.shtuka import field


@lru_cache(maxsize=None)
def arrays(cfg):
    """The tables of cfg as int64 numpy arrays, for vectorised references:
    add, mul, neg, inv, frb and frbi, indexed as add[a, b]."""
    names = ('add', 'mul', 'neg', 'inv', 'frb', 'frbi')
    return SimpleNamespace(**{name: np.array(t, dtype=np.int64)
                              for name, t in zip(names, cfg.tables + cfg.frobs)})


@pytest.fixture(scope='session')
def cfg():
    return field(2, 2)


@pytest.fixture(scope='session')
def cfg1():
    # prime field, q = 2
    return field(2, 1)


@pytest.fixture(scope='session')
def report():
    # shared calibrate() report for criterion tests; the acceptance module
    # runs its own timed calibration with the full sample budget
    return calibrate(probes=((2, 1),), samples={(2, 1): 60}, sigma_trials=20)
