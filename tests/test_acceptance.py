"""Acceptance battery at the default desk scale: N = 50,000 paths, M = 200
steps, seed 7, alpha = 0.01.  One test per criterion, each printing a
PASS/FAIL line.  Each criterion simulates the ensembles it reads through the
suite's stateless source, as ``run_suite`` does, so no ensemble is kept
between criteria; ``bench/battery.py`` measures the nine at desk scale at an
813 MB peak, in criterion 2.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every test here is marked slow, so `pytest -m "not slow"`
runs the module tests alone.
"""

import json

import pytest

from lagrangeflow.suite import CRITERIA, SuiteScale, suite_ensembles

pytestmark = pytest.mark.slow

SCALE = SuiteScale(n_paths=50000, steps=200, seed=7, alpha=0.01)


@pytest.fixture(scope="module")
def ensembles():
    return suite_ensembles(SCALE)


def _summary(result):
    details = result.get("details", {})
    keep = {}
    for key, value in details.items():
        if isinstance(value, dict):
            keep[key] = {k: v for k, v in value.items()
                         if isinstance(v, (int, float, bool, str))}
        elif isinstance(value, (int, float, bool, str)):
            keep[key] = value
    return json.dumps(keep, default=str)[:600]


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[f"criterion_{i + 1}" for i in range(len(CRITERIA))])
def test_acceptance_criterion(criterion, ensembles):
    result = criterion(SCALE, ensembles)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[{status}] criterion {result['criterion']}: {result['name']}")
    assert result["passed"], _summary(result)
