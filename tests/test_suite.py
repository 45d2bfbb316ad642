"""The suite's ensemble cache: planned reads, lifetimes and memory."""

import json
import tracemalloc
from collections import Counter

import pytest

from lagrangeflow import suite
from lagrangeflow.engine import BLOCK_PATHS
from lagrangeflow.suite import (SuiteScale, _EnsembleCache, _reads,
                                run_criterion, run_suite)

# N above criterion 4's 4000-path zero-flow ensembles, whose Wiener companion
# would otherwise share a key with the cached Wiener ensemble
TOY = SuiteScale(n_paths=4096, steps=8, seed=5, alpha=0.01)
CACHED = range(2, 8)    # criteria 1, 3, 8 and 9 read no cached ensemble


class _RecordingCache(_EnsembleCache):
    def __init__(self, scale, plan=()):
        super().__init__(scale, plan)
        self.requested = []

    def _serve(self, key):
        self.requested.append(key)
        return super()._serve(key)


@pytest.mark.parametrize("index", range(1, 8))
def test_each_criterion_reads_its_planned_keys(index):
    cache = _RecordingCache(TOY)
    run_criterion(index, TOY, cache)
    assert Counter(cache.requested) == Counter(_reads(TOY).get(index, ()))
    if index == 3:      # criterion 3 simulates its own paths piece by piece
        assert cache.requested == [] and 3 not in _reads(TOY)


def test_cache_forgets_each_key_after_its_last_planned_read():
    key = ("pu", "taylor_green", TOY.n_paths, TOY.steps, TOY.seed)
    cache = _EnsembleCache(TOY, [2, 5])     # each reads Taylor-Green once
    first = cache.pu(*key[1:])
    assert key in cache
    assert cache.pu(*key[1:]) is first
    assert key not in cache
    unplanned = cache.pu(*key[1:])
    assert unplanned is not first and key not in cache


def test_suite_simulates_each_planned_key_once(monkeypatch):
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
    planned = {key for i in CACHED for key in _reads(TOY).get(i, ())}
    assert {key: made[key] for key in planned} == dict.fromkeys(planned, 1)
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
