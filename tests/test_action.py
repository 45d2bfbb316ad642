import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from lagrangeflow import (FlowCase, PressureField,
                          VelocityField, action_derivative_analytic,
                          action_derivative_fd, action_derivatives_fd,
                          case_names, default_dictionary,
                          gated_tanh_perturbation, get_case,
                          least_action_check, simulate_pu,
                          sine_perturbation, stochastic_action)

from lagrangeflow import catalog, suite
from lagrangeflow.action import (DICTIONARIES, FOLD_PATHS, _analytic_kernel,
                                 _tables, criticality_report)
from lagrangeflow.engine import BLOCK_PATHS, CHUNK_FLOOR, PIECE_PATHS

from conftest import M_SMALL, N_SMALL, SEED, counting_case, threads

E1, E2, E3 = np.eye(3)
SMALL = (N_SMALL, M_SMALL, SEED)    # the estimators walk the fixtures' paths


def test_default_dictionary_size_and_labels():
    labels = [e.label for e in default_dictionary()]
    assert labels == ["sine_e1", "sine_e2", "sine_e3", "bump_e1", "bump_e2",
                      "bump_e3", "gated_tanh(a=0.25)", "gated_tanh(a=0.5)",
                      "gated_tanh(a=0.75)"]


@pytest.mark.parametrize("entry", default_dictionary(),
                         ids=lambda e: e.label)
def test_perturbations_vanish_at_endpoints(entry, tg_ensemble):
    h, _ = reference.probe(entry, tg_ensemble.positions)
    assert np.all(h[:, 0, :] == 0.0)
    assert np.all(h[:, -1, :] == 0.0)


def test_gated_perturbation_is_causal(tg_ensemble):
    entry = gated_tanh_perturbation(0.5)
    h, _ = reference.probe(entry, tg_ensemble.positions)
    m = tg_ensemble.grid.steps
    assert np.all(h[:, : m // 2, :] == 0.0)
    # the gate reads the path at the activation index only
    gate = np.tanh(tg_ensemble.positions[:, m // 2, :])
    k = 3 * m // 4
    factor = np.sin(np.pi * (tg_ensemble.grid.times[k] - 0.5) / 0.5)
    assert np.allclose(h[:, k, :], factor * gate, atol=1e-15)
    with pytest.raises(ValueError):
        gated_tanh_perturbation(1.5)


def test_zero_flow_action_and_derivative_exact():
    case = get_case("zero_flow")
    est = stochastic_action(case, *SMALL)
    assert est.value == pytest.approx(-0.5, abs=1e-12)
    assert est.std_error <= 1e-13
    for entry in default_dictionary():
        d = action_derivative_analytic(case, *SMALL, entry)
        assert d.value == 0.0 and d.std_error == 0.0
        f = action_derivative_fd(case, *SMALL, entry)
        assert f.value == 0.0


def test_action_cross_checks_entropy():
    from lagrangeflow import action_entropy_identity
    case = get_case("taylor_green")
    act = stochastic_action(case, *SMALL)
    rep = action_entropy_identity(case, *SMALL)
    target = rep["H"].value - rep["ln_Zp"].value
    combined = np.hypot(act.std_error, rep["H"].std_error)
    assert abs(act.value - target) <= 3.0 * combined + 2.0 / M_SMALL
    assert act == rep["S"]


@pytest.mark.parametrize("name", case_names())
def test_fd_matches_analytic_everywhere(name):
    case = get_case(name)
    for entry in default_dictionary():
        a = action_derivative_analytic(case, 1500, 60, SEED + 2, entry)
        f = action_derivative_fd(case, 1500, 60, SEED + 2, entry)
        tol = 3.0 * np.hypot(a.std_error, f.std_error) + 1e-4
        assert abs(a.value - f.value) <= tol, entry.label


def test_fd_evaluates_drift_once_and_pressure_per_shift():
    # every path point sees u once, and p once per probe and sign; all
    # probes and signs of a piece share one p call per step
    points, calls = {}, {}
    case = counting_case(get_case("taylor_green"), points, calls)
    dictionary = default_dictionary()
    action_derivatives_fd(case, *SMALL, dictionary)
    n, m = N_SMALL, M_SMALL
    assert points == {"u": n * m, "p": 2 * m * len(dictionary) * n}
    assert calls["p"] == m * -(-n // PIECE_PATHS)


def test_fd_chunks_evaluate_each_point_once(monkeypatch):
    # two workers and N above twice the worker floor: five pieces, the last
    # of three paths, and still every path point sees u once and p once per
    # probe and sign
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base = get_case("taylor_green")
    n, m = 2 * CHUNK_FLOOR + 3, 6
    points, calls = {}, {}
    case = counting_case(base, points, calls)
    dictionary = default_dictionary()
    action_derivatives_fd(case, n, m, SEED, dictionary)
    assert points == {"u": n * m, "p": 2 * m * len(dictionary) * n}
    assert calls["p"] == m * -(-n // PIECE_PATHS)


def test_least_action_evaluates_each_point_once(monkeypatch):
    # u and grad p once per path point and k < M, over every piece, and
    # nothing else
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base = get_case("taylor_green")
    n, m = 2 * CHUNK_FLOOR + PIECE_PATHS + 1, 5
    points = {}
    least_action_check(counting_case(base, points), n, m, SEED)
    assert points == {"u": n * m, "gradp": n * m}


def test_least_action_scratch_is_a_few_path_arrays():
    # one worker: beyond the (J, N) table, a piece's positions x (M+1, P, 3),
    # drift v (P, M, 3) and grad p (P, M, 3), and eight (P, 3) slices (one
    # step's field values, the gate weights), the contractions may hold no
    # more than three (FOLD_PATHS, M) float64 planes, P = PIECE_PATHS, and the
    # buffers numpy's ufuncs take for broadcast operands (np.getbufsize()
    # elements each, two at once for a per-path factor)
    case = get_case("taylor_green")
    n, m, p = N_SMALL, M_SMALL, PIECE_PATHS
    with threads("1"):
        least_action_check(case, *SMALL)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            least_action_check(case, *SMALL)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    table_bytes = len(default_dictionary()) * n * 8
    x_bytes, v_bytes, gp_bytes = (m + 1) * p * 3 * 8, p * m * 3 * 8, p * m * 3 * 8
    slices = 8 * p * 3 * 8
    planes, buffers = 3 * FOLD_PATHS * m * 8, 2 * np.getbufsize() * 8
    assert peak < table_bytes + x_bytes + v_bytes + gp_bytes + slices + planes + buffers


@pytest.mark.parametrize("n", [1, 2, FOLD_PATHS - 1, FOLD_PATHS, FOLD_PATHS + 1,
                               PIECE_PATHS - 1, PIECE_PATHS + 1, 2 * PIECE_PATHS + 1])
@pytest.mark.parametrize("name", case_names())
def test_folded_kernel_equals_the_whole_piece_kernel(name, n):
    # on both sides of a fold's edge, and pieces ending one path past a fold,
    # the folded kernel's table is the whole-array contraction's bytes at
    # every worker count
    case = get_case(name)
    x = reference.positions(case, n, 6, SEED)
    for make in DICTIONARIES.values():
        dictionary = make()
        want = reference.analytic_table(case, x, dictionary).tobytes()
        for count in ("1", "2", "8"):
            with threads(count):
                got = _tables(case, n, 6, SEED, dictionary, [_analytic_kernel])[0]
            assert got.tobytes() == want, (len(dictionary), count)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_analytic_table_adds_every_component_of_a_non_finite_drift(tg_ensemble):
    # a zero weight column is skipped only while v and grad p are finite: an
    # infinite v_3 turns the e1 and e2 probes of its path into nan, as adding
    # every component does, and leaves the other paths as they were
    case = get_case("taylor_green")
    cut = np.quantile(tg_ensemble.positions[:, :-1, 0], 0.99)

    def u(t, x):
        out = case.velocity.eval(t, x)
        out[..., 2] = np.where(x[..., 0] > cut, np.inf, out[..., 2])
        return out

    bad = dataclasses.replace(case, velocity=dataclasses.replace(case.velocity, eval=u))
    dictionary = default_dictionary()
    # a walked path follows the fixture's until its first step past the cut
    hit = (tg_ensemble.positions[:, :-1, 0] > cut).any(axis=1)
    planar = [i for i, h in enumerate(dictionary) if h.label[-2:] in ("e1", "e2")]
    table = _tables(bad, *SMALL, dictionary, [_analytic_kernel])[0]
    assert hit.any() and len(planar) == 4
    assert np.isnan(table[np.ix_(planar, hit)]).all()
    assert np.array_equal(table[:, ~hit],
                          _tables(case, *SMALL, dictionary, [_analytic_kernel])[0][:, ~hit])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_drift_in_one_fold_leaves_the_other_folds_clean():
    # an infinite v_3 at step 2 of two paths in the third fold of a piece:
    # those paths turn nan in the e1 and e2 probes as the reference has them,
    # and every other path, in that fold or the clean ones, keeps its value
    case = get_case("taylor_green")
    n, m = PIECE_PATHS, 6
    hit = np.zeros(n, dtype=bool)
    hit[[2 * FOLD_PATHS + 7, 3 * FOLD_PATHS - 1]] = True
    marks = simulate_pu(case, n, m, SEED).positions[hit, 2]

    def u(t, x):
        out = case.velocity.eval(t, x)
        at_mark = (x[:, None] == marks).all(axis=-1).any(axis=-1)
        out[..., 2] = np.where(at_mark, np.inf, out[..., 2])
        return out

    bad = dataclasses.replace(case, velocity=dataclasses.replace(case.velocity, eval=u))
    dictionary = default_dictionary()
    planar = [i for i, h in enumerate(dictionary) if h.label[-2:] in ("e1", "e2")]
    with threads("1"):
        table = _tables(bad, n, m, SEED, dictionary, [_analytic_kernel])[0]
        clean = _tables(case, n, m, SEED, dictionary, [_analytic_kernel])[0]
    want = reference.analytic_table(bad, reference.positions(bad, n, m, SEED), dictionary)
    assert table.tobytes() == want.tobytes()
    assert len(planar) == 4 and np.isnan(table[np.ix_(planar, hit)]).all()
    assert np.array_equal(table[:, ~hit], clean[:, ~hit])


@pytest.mark.parametrize("estimator", [least_action_check, action_derivatives_fd])
def test_criterion_3_scratch_does_not_grow_with_n(estimator):
    # both estimators keep O(block) scratch plus a (J, N) per-path table, so
    # four times the paths may not raise the allocation peak by half
    case = get_case("taylor_green")
    dictionary = default_dictionary()
    peaks = []
    for n in (4 * CHUNK_FLOOR, 16 * CHUNK_FLOOR):
        with threads("1"):
            tracemalloc.start()
            try:
                estimator(case, n, 50, SEED, dictionary)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


@settings(max_examples=20, deadline=None, database=None)
@given(name=st.sampled_from(["taylor_green", "lamb_oseen",
                             "frozen_taylor_green"]),
       n=st.one_of(st.sampled_from(reference.EDGES[1:]),
                   st.integers(2, PIECE_PATHS - 1),
                   st.integers(CHUNK_FLOOR - 1, BLOCK_PATHS + 1)),
       m=st.integers(2, 12), seed=st.integers(0, 2**63 - 1))
def test_criterion_3_outputs_invariant_to_worker_count(name, n, m, seed):
    case = get_case(name)
    dictionary = default_dictionary()
    outputs = []
    for count in ("1", "2", "3", "8"):
        with threads(count):
            outputs.append((least_action_check(case, n, m, seed, dictionary),
                            action_derivatives_fd(case, n, m, seed, dictionary)))
    for other in outputs[1:]:
        assert other == outputs[0]


def test_criterion_3_evaluates_u_once_per_path_point(monkeypatch):
    # per case: u at each path point with k < M once (the simulation's drift
    # feeds both estimators), grad p once there, and p once per probe and sign
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    points = {}
    get = catalog.get_case

    def counting_get_case(name):
        return counting_case(get(name), points.setdefault(name, {}))

    monkeypatch.setattr(catalog, "get_case", counting_get_case)
    scale = suite.SuiteScale(n_paths=2 * PIECE_PATHS + 5, steps=5, seed=SEED)
    suite.run_criterion(3, scale)
    n, m, probes = scale.n_paths, scale.steps, len(default_dictionary())
    assert points == dict.fromkeys(
        ("taylor_green", "lamb_oseen", "frozen_taylor_green"),
        {"u": n * m, "gradp": n * m, "p": 2 * m * probes * n})


def test_fd_exact_for_locally_quadratic_pressure():
    # constant pressure has no curvature along h, so the central difference
    # reproduces the analytic derivative up to roundoff
    case = get_case("zero_flow")
    h = sine_perturbation(E1)
    a = action_derivative_analytic(case, *SMALL, h)
    f = action_derivative_fd(case, *SMALL, h)
    assert abs(a.value - f.value) <= 1e-12


def test_derivative_linear_in_h():
    case = get_case("taylor_green")
    d1 = action_derivative_analytic(case, *SMALL, sine_perturbation(E1))
    d2 = action_derivative_analytic(case, *SMALL, sine_perturbation(E2))
    dsum = action_derivative_analytic(case, *SMALL, sine_perturbation(E1 + E2))
    se = np.hypot(d1.std_error, d2.std_error)
    assert abs(dsum.value - (d1.value + d2.value)) <= max(3.0 * se, 1e-12)


def test_verdict_invariant_under_pressure_shift():
    base = get_case("taylor_green")
    shifted = FlowCase(
        name=base.name,           # same velocity, so the same paths
        velocity=base.velocity,
        pressure=PressureField(
            eval=lambda t, x: base.pressure.eval(t, x) + 0.25,
            gradient=base.pressure.gradient,
            bound=base.pressure.bound + 0.25),
        is_exact_solution=base.is_exact_solution,
        symmetries=base.symmetries)
    for entry in default_dictionary():
        a = action_derivative_analytic(base, *SMALL, entry)
        b = action_derivative_analytic(shifted, *SMALL, entry)
        assert a.value == b.value and a.std_error == b.std_error


def test_least_action_verdicts_small_scale():
    report = least_action_check(get_case("taylor_green"), *SMALL)
    assert report["verdict"] == "critical"
    assert len(report["entries"]) >= 9
    report = least_action_check(get_case("frozen_taylor_green"), *SMALL)
    assert report["verdict"] == "not critical"
    assert report["max_abs_z"] >= 5.0
    triggering = [e for e in report["entries"] if abs(e["z"]) >= 5.0]
    assert any("gated" in e["h"] for e in triggering)


def test_least_action_entries_equal_analytic_derivative():
    for name in ("taylor_green", "frozen_taylor_green"):
        case = get_case(name)
        report = least_action_check(case, *SMALL)
        for h, row in zip(default_dictionary(), report["entries"], strict=True):
            est = action_derivative_analytic(case, *SMALL, h)
            assert row["h"] == h.label
            assert row["estimate"] == est.value
            assert row["std_error"] == est.std_error


def test_least_action_zero_flow():
    report = least_action_check(get_case("zero_flow"), *SMALL)
    assert report["verdict"] == "critical"
    assert report["max_abs_z"] == 0.0
    with pytest.raises(ValueError):
        least_action_check(get_case("zero_flow"), *SMALL, dictionary=[])


def test_least_action_needs_two_paths():
    # refused before the walk evaluates a single field point
    points = {}
    case = counting_case(get_case("zero_flow"), points)
    with pytest.raises(ValueError, match="N >= 2"):
        least_action_check(case, 1, 4, 1)
    assert points == {}


def test_least_action_needs_a_dictionary():
    # refused before the walk evaluates a single field point
    points = {}
    case = counting_case(get_case("taylor_green"), points)
    with pytest.raises(ValueError, match="dictionary must be non-empty"):
        least_action_check(case, 3000, 20, 7, dictionary=[])
    assert points == {}


def _uniform_flow(speed=0.3):
    """u = (speed, 0, 0) with p = 0: an exact solution (zero residual) whose
    drift is one constant, so each deterministic probe reads the same value
    on every path."""
    def zeros3(t, x):
        return np.zeros_like(x)

    def u(t, x):
        return np.broadcast_to([speed, 0.0, 0.0], x.shape).copy()

    velocity = VelocityField(u, zeros3, lambda t, x: np.zeros(x.shape[:-1] + (3, 3)),
                             zeros3, bound=speed)
    pressure = PressureField(lambda t, x: np.zeros(x.shape[:-1]), zeros3, bound=1e-12)
    return FlowCase("uniform_flow", velocity, pressure, is_exact_solution=True)


def test_zero_variance_estimate_takes_an_infinite_z_of_its_own_sign():
    # a nan estimate (a non-finite drift) is not above 0: martingale.z_scores
    # gives it z = -inf, as it gives a nan martingale cell
    table = np.array([[0.5] * 4, [-0.5] * 4, [0.0] * 4, [np.nan] * 4])
    entries = [sine_perturbation(E1, "up"), sine_perturbation(E2, "down"),
               sine_perturbation(E3, "flat"), sine_perturbation(E1, "nan")]
    report = criticality_report(entries, table)
    assert [row["z"] for row in report["entries"]] == [np.inf, -np.inf, 0.0, -np.inf]
    assert np.isnan(report["entries"][3]["estimate"])
    assert report["max_abs_z"] == np.inf and report["verdict"] == "not critical"
    # on a uniform flow sine_e1 reads the same negative value on every path
    case = _uniform_flow()
    assert catalog.probe_residuals(case)["max_abs_residual"] == 0.0
    (row,) = least_action_check(case, 1000, 50, SEED,
                                dictionary=[sine_perturbation(E1)])["entries"]
    assert row["std_error"] == 0.0 and row["estimate"] < 0.0
    assert row["z"] == -np.inf


@pytest.mark.xfail(strict=True, reason=(
    "both estimators shift the drift by eps * hdot(t_k) at the left point, "
    "while the Euler increments of X + eps h shift by eps (h_{k+1} - h_k); "
    "sum_k hdot(t_k) dt is pi/M for a sine and 1/M for a bump, not "
    "h(1) - h(0) = 0, so a constant drift reads -0.3 pi/M and -0.3/M"))
def test_least_action_finds_a_uniform_flow_critical():
    # a constant drift with p = 0: every deterministic probe's derivative is 0
    case = _uniform_flow()
    report = least_action_check(case, 1000, 50, SEED)
    by_label = {row["h"]: row["estimate"] for row in report["entries"]}
    assert abs(by_label["sine_e1"]) <= 1e-12 and abs(by_label["bump_e1"]) <= 1e-12
    assert report["verdict"] == "critical"
