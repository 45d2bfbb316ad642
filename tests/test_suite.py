"""The suite's ensemble cache: planned reads, lifetimes and memory."""

import json
import tracemalloc
from collections import Counter

import pytest

from lagrangeflow import suite
from lagrangeflow.engine import BLOCK_PATHS
from lagrangeflow.suite import (SHARED, SuiteScale, _EnsembleCache,
                                run_criterion, run_suite)

# N above criterion 4's 4000-path zero-flow ensemble, so its runs take the
# min(N, 4000) branch as at desk scale
TOY = SuiteScale(n_paths=4096, steps=8, seed=5, alpha=0.01)
CACHED = range(2, 8)    # criteria 1, 3, 8 and 9 read no cached ensemble


def _reads(index):
    return [name for name, readers in SHARED.items() if index in readers]


class _RecordingCache(_EnsembleCache):
    def __init__(self, scale, plan=()):
        super().__init__(scale, plan)
        self.requested = []

    def __call__(self, name):
        self.requested.append(name)
        return super().__call__(name)


@pytest.mark.parametrize("index", range(1, 8))
def test_each_criterion_reads_its_planned_keys(index):
    cache = _RecordingCache(TOY)
    run_criterion(index, TOY, cache)
    assert Counter(cache.requested) == Counter(_reads(index))
    if index == 3:      # criterion 3 simulates its own paths piece by piece
        assert cache.requested == []


def test_cache_forgets_each_key_after_its_last_planned_read():
    cache = _EnsembleCache(TOY, [2, 5])     # each reads Taylor-Green once
    first = cache("taylor_green")
    assert list(cache) == ["taylor_green"]
    assert first.positions.shape == (TOY.n_paths, TOY.steps + 1, 3)
    assert cache("taylor_green") is first
    assert "taylor_green" not in cache
    unplanned = cache("taylor_green")
    assert unplanned is not first and "taylor_green" not in cache


def test_suite_simulates_each_planned_key_once(monkeypatch):
    # the shared ensembles once per run, and no other ensemble twice
    made = Counter()
    simulate_pu, simulate_wiener = suite.simulate_pu, suite.simulate_wiener

    def count_pu(case, n, m, seed):
        made["pu", case.name, n, m, seed] += 1
        return simulate_pu(case, n, m, seed)

    def count_wiener(n, m, seed):
        made["wiener", n, m, seed] += 1
        return simulate_wiener(n, m, seed)

    monkeypatch.setattr(suite, "simulate_pu", count_pu)
    monkeypatch.setattr(suite, "simulate_wiener", count_wiener)
    report = run_suite(TOY, only=list(CACHED))
    shared = {("pu", name, TOY.n_paths, TOY.steps, TOY.seed) for name in SHARED}
    assert shared <= set(made) and set(made.values()) == {1}
    separate = [run_criterion(i, TOY) for i in CACHED]
    assert (json.dumps(report["criteria"], sort_keys=True)
            == json.dumps(separate, sort_keys=True))


def test_criterion_3_holds_one_ensemble_at_a_time(monkeypatch):
    # criterion 3 holds no ensemble at all: one simulation piece with its
    # drift, the estimators' block scratch and the two (J, N) tables stay
    # below half of one 47 MB ensemble; simulating each case's ensemble first
    # peaks above one, and keeping them all above three
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "1")
    scale = SuiteScale(n_paths=4 * BLOCK_PATHS, steps=60, seed=3, alpha=0.01)
    tracemalloc.start()
    try:
        run_criterion(3, scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * scale.n_paths * (scale.steps + 1) * 3 * 8


@pytest.mark.parametrize("index", [0, -1, 10])
def test_criterion_numbers_outside_1_to_9_are_refused(index, monkeypatch):
    # a number outside 1..9 raises before any criterion runs, rather than
    # wrapping around to a criterion counted from the end
    ran = []
    monkeypatch.setattr(suite, "CRITERIA", tuple(
        lambda scale, cache, i=i: ran.append(i) for i in range(1, 10)))
    with pytest.raises(ValueError, match="from 1 to 9"):
        run_criterion(index, TOY)
    for only in ([index], [1, index], [index, 9]):
        with pytest.raises(ValueError, match="from 1 to 9"):
            run_suite(TOY, only=only)
    assert ran == []


@pytest.mark.parametrize("scale", [
    SuiteScale(n_paths=64, steps=4, seed=2**64 - 1099),   # criterion 8: + 1099
    SuiteScale(n_paths=64, steps=4, seed=-1),
    SuiteScale(n_paths=64, steps=4, alpha=1e-14),   # over criterion 8's 300 cells
    SuiteScale(n_paths=64, steps=200, alpha=1.2e-13),   # over 6 M = 1200 cells
], ids=["seed_past_2**64", "negative_seed", "alpha_criterion_8", "alpha_6M"])
def test_scales_a_criterion_would_fail_on_are_refused_first(scale, monkeypatch):
    ran = []
    monkeypatch.setattr(suite, "CRITERIA", tuple(
        lambda scale, cache, i=i: ran.append(i) for i in range(1, 10)))
    with pytest.raises(ValueError, match="seed|alpha"):
        run_criterion(1, scale)
    with pytest.raises(ValueError, match="seed|alpha"):
        run_suite(scale, only=[1, 9])
    assert ran == []


@pytest.mark.parametrize("n, m, only", [
    (1, 4, [1, 2]),     # criteria 2-7 take standard errors over N >= 2 paths
    (1, 4, [7]),
    (10, 3, [7]),       # criteria 2 and 7 also simulate at M // 2
    (10, 3, [1, 2]),
    (10, 1, [3]),
])
def test_scales_below_what_a_selected_criterion_needs_are_refused_first(
        n, m, only, monkeypatch):
    ran = []
    monkeypatch.setattr(suite, "CRITERIA", tuple(
        lambda scale, cache, i=i: ran.append(i) or {"passed": True}
        for i in range(1, 10)))
    scale = SuiteScale(n_paths=n, steps=m)
    with pytest.raises(ValueError, match="N must be >= 2|M must be >= "):
        run_suite(scale, only=only)
    with pytest.raises(ValueError, match="N must be >= 2|M must be >= "):
        run_criterion(only[-1], scale)
    assert ran == []
    run_suite(SuiteScale(n_paths=1, steps=1), only=[1, 8, 9])
    run_suite(SuiteScale(n_paths=2, steps=4))
    assert ran == [1, 8, 9, *range(1, 10)]


@pytest.mark.parametrize("index", [8, 9])
def test_criteria_8_and_9_pass_at_their_fixed_scale(index):
    # neither reads N or M: criterion 8 tests 100 Wiener ensembles and
    # criterion 9 runs six commands, all at N = 2000, M = 50
    result = run_criterion(index, SuiteScale(seed=7))
    assert result["passed"], result["details"]
