import contextlib
import dataclasses
import os
import threading
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


def counting_case(case, points, calls=None):
    """case with its u, p and grad p evaluators counting the points (x.size //
    3) and the calls each is asked for; the lock keeps the counts exact on
    worker threads."""
    lock = threading.Lock()
    calls = {} if calls is None else calls

    def counted(kind, fn):
        def wrapped(t, x):
            with lock:
                points[kind] = points.get(kind, 0) + x.size // 3
                calls[kind] = calls.get(kind, 0) + 1
            return fn(t, x)
        return wrapped

    velocity, pressure = case.velocity, case.pressure
    return dataclasses.replace(
        case,
        velocity=dataclasses.replace(velocity, eval=counted("u", velocity.eval)),
        pressure=dataclasses.replace(
            pressure, eval=counted("p", pressure.eval),
            gradient=counted("gradp", pressure.gradient)))


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
