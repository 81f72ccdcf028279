import pytest

from pkernels import calibrate
from pkernels.shtuka import field


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

