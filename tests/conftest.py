import contextlib
import os
from unittest import mock

import pytest

from lagrangeflow import get_case, simulate_pu, simulate_wiener

# Shared desk-scale ensembles for the module tests; the acceptance module
# runs its own full-scale simulations.
N_SMALL = 4000
M_SMALL = 100
SEED = 11


@contextlib.contextmanager
def threads(value):
    """LAGRANGEFLOW_THREADS=value with eight usable cores mocked, so every
    thread count takes effect on any box; usable inside hypothesis tests."""
    with mock.patch.dict(os.environ, {"LAGRANGEFLOW_THREADS": value}), \
            mock.patch("os.sched_getaffinity", lambda pid: set(range(8)),
                       create=True):
        yield


@pytest.fixture(scope="session")
def tg_ensemble():
    return simulate_pu(get_case("taylor_green"), N_SMALL, M_SMALL, SEED)


@pytest.fixture(scope="session")
def lo_ensemble():
    return simulate_pu(get_case("lamb_oseen"), N_SMALL, M_SMALL, SEED)


@pytest.fixture(scope="session")
def frozen_ensemble():
    return simulate_pu(get_case("frozen_taylor_green"), N_SMALL, M_SMALL, SEED)


@pytest.fixture(scope="session")
def zero_ensemble():
    return simulate_pu(get_case("zero_flow"), N_SMALL, M_SMALL, SEED)


@pytest.fixture(scope="session")
def wiener_ensemble():
    return simulate_wiener(N_SMALL, M_SMALL, SEED + 1)
