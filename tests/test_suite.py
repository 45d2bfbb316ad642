"""The suite's ensemble source: what each criterion reads, how long it
holds it, and memory."""

import gc
import json
import tracemalloc
import weakref
from collections import Counter

import pytest

from lagrangeflow import engine, suite
from lagrangeflow.engine import BLOCK_PATHS
from lagrangeflow.suite import SuiteScale, run_criterion, run_suite, suite_ensembles

# N above criterion 4's 4000-path zero-flow ensemble, so its runs take the
# min(N, 4000) branch as at desk scale
TOY = SuiteScale(n_paths=4096, steps=8, seed=5, alpha=0.01)
SIMULATING = range(2, 8)    # criteria 1, 8 and 9 read neither N nor M

# The suite-scale cases each criterion reads through its ensembles source
READS = {2: ["taylor_green", "lamb_oseen", "frozen_taylor_green"],
         5: ["taylor_green"], 6: ["lamb_oseen"], 7: ["lamb_oseen"]}


@pytest.mark.parametrize("index", range(1, 10))
def test_each_criterion_reads_its_planned_keys(index):
    requested = []
    ensembles = suite_ensembles(TOY)

    def recording(name):
        requested.append(name)
        return ensembles(name)

    suite.CRITERIA[index - 1](TOY, recording)
    assert requested == READS.get(index, [])


def test_no_ensemble_outlives_its_criterion(monkeypatch):
    # every ensemble a criterion simulates, its source's, the probe's, the
    # null runs' and criterion 9's commands', is gone when the next starts
    alive = []
    simulate = engine._simulate

    def tracked(*args):
        ensemble = simulate(*args)
        alive.append(weakref.ref(ensemble))
        return ensemble

    def starts(criterion):
        def run(scale, ensembles):
            assert [ref for ref in alive if ref() is not None] == []
            return criterion(scale, ensembles)
        return run

    monkeypatch.setattr(engine, "_simulate", tracked)
    monkeypatch.setattr(suite, "CRITERIA", tuple(map(starts, suite.CRITERIA)))
    gc.disable()        # freed by reference counts alone, not by a collection
    try:
        run_suite(TOY)
        assert [ref for ref in alive if ref() is not None] == []
    finally:
        gc.enable()
    assert len(alive) > 100     # criterion 8 alone simulates a hundred


def test_suite_report_equals_the_separate_criteria(monkeypatch):
    # run_suite simulates what the separate runs simulate, byte for byte
    made = Counter()
    simulate = engine._simulate

    def counting(case, n, m, seed):
        made[getattr(case, "name", None), n, m, seed] += 1
        return simulate(case, n, m, seed)

    monkeypatch.setattr(engine, "_simulate", counting)
    report = run_suite(TOY, only=list(SIMULATING))
    in_suite = Counter(made)
    made.clear()
    separate = [run_criterion(i, TOY) for i in SIMULATING]
    assert in_suite == made
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
        lambda scale, ensembles, i=i: ran.append(i) for i in range(1, 10)))
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
        lambda scale, ensembles, i=i: ran.append(i) for i in range(1, 10)))
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
        lambda scale, ensembles, i=i: ran.append(i) or {"passed": True}
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
