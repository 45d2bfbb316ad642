import dataclasses
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagrangeflow import (FlowCase, PressureField, action_derivative_analytic,
                          action_derivative_fd, action_derivatives_fd,
                          case_names, default_dictionary, drift_process,
                          gated_tanh_perturbation, get_case,
                          least_action_check, mean_with_error, simulate_pu,
                          sine_perturbation, stochastic_action)

from lagrangeflow import catalog, suite
from lagrangeflow.action import (_CHECK_PATHS, _analytic_table, _fd_table,
                                 criticality_report, criticality_tables)
from lagrangeflow.engine import BLOCK_PATHS, CHUNK_FLOOR, PIECE_PATHS

from conftest import SEED, threads as _threads

E1, E2, E3 = np.eye(3)


def test_default_dictionary_size_and_labels():
    entries = default_dictionary()
    assert len(entries) >= 9
    kinds = {e.kind for e in entries}
    assert kinds == {"deterministic_sine", "deterministic_bump", "adapted_gated"}


@pytest.mark.parametrize("entry", default_dictionary(),
                         ids=lambda e: e.label)
def test_perturbations_vanish_at_endpoints(entry, tg_ensemble):
    h, hdot = entry.realize(tg_ensemble)
    assert np.all(h[:, 0, :] == 0.0)
    assert np.all(h[:, -1, :] == 0.0)
    energy = (hdot**2).sum(axis=-1).sum(axis=1).max() * tg_ensemble.grid.dt
    assert energy <= entry.energy_bound + 1e-9


def test_gated_perturbation_is_causal(tg_ensemble):
    entry = gated_tanh_perturbation(0.5)
    h, _ = entry.realize(tg_ensemble)
    m = tg_ensemble.grid.steps
    assert np.all(h[:, : m // 2, :] == 0.0)
    # the gate reads the path at the activation index only
    gate = np.tanh(tg_ensemble.positions[:, m // 2, :])
    k = 3 * m // 4
    factor = np.sin(np.pi * (tg_ensemble.grid.times[k] - 0.5) / 0.5)
    assert np.allclose(h[:, k, :], factor * gate, atol=1e-15)
    with pytest.raises(ValueError):
        gated_tanh_perturbation(1.5)


def test_zero_flow_action_and_derivative_exact(zero_ensemble):
    case = get_case("zero_flow")
    est = stochastic_action(case, zero_ensemble)
    assert est.value == pytest.approx(-0.5, abs=1e-12)
    assert est.std_error <= 1e-13
    for entry in default_dictionary():
        d = action_derivative_analytic(case, zero_ensemble, entry)
        assert d.value == 0.0 and d.std_error == 0.0
        f = action_derivative_fd(case, zero_ensemble, entry)
        assert f.value == 0.0


def test_action_cross_checks_entropy(tg_ensemble, wiener_ensemble):
    from lagrangeflow import action_entropy_identity
    case = get_case("taylor_green")
    act = stochastic_action(case, tg_ensemble)
    rep = action_entropy_identity(case, tg_ensemble, wiener_ensemble)
    target = rep["H"].value - rep["ln_Zp"].value
    combined = np.hypot(act.std_error, rep["H"].std_error)
    assert abs(act.value - target) <= 3.0 * combined + 2.0 / tg_ensemble.grid.steps


@pytest.mark.parametrize("name", case_names())
def test_fd_matches_analytic_everywhere(name):
    case = get_case(name)
    ens = simulate_pu(case, 1500, 60, SEED + 2)
    for entry in default_dictionary():
        a = action_derivative_analytic(case, ens, entry)
        f = action_derivative_fd(case, ens, entry, eps=1e-2)
        tol = 3.0 * np.hypot(a.std_error, f.std_error) + 1e-4
        assert abs(a.value - f.value) <= tol, entry.label


def _per_probe_fd(case, ensemble, h, eps):
    # the per-probe oracle: full drift array, then one shifted action per sign
    x = ensemble.positions
    grid = ensemble.grid
    times = grid.times
    v = drift_process(case, ensemble).values
    hv, hdv = h.realize(ensemble)
    m = grid.steps

    def shifted_action(sign):
        vs = v[:, :m] + sign * eps * hdv[:, :m]
        acc = np.zeros(x.shape[0])
        for k in range(m):
            t_rev = 1.0 - times[k]
            xs = x[:, k] + sign * eps * hv[:, k]
            acc += (0.5 * (vs[:, k] ** 2).sum(axis=-1)
                    - case.pressure.eval(t_rev, xs))
        return acc * grid.dt

    per_path = (shifted_action(+1.0) - shifted_action(-1.0)) / (2.0 * eps)
    return mean_with_error(per_path)


@pytest.mark.parametrize("name, fixture", [("taylor_green", "tg_ensemble"),
                                           ("lamb_oseen", "lo_ensemble")])
def test_fd_over_dictionary_equals_per_probe_loop(name, fixture, request):
    case = get_case(name)
    ens = request.getfixturevalue(fixture)
    dictionary = default_dictionary()
    together = action_derivatives_fd(case, ens, dictionary, eps=1e-2)
    assert len(together) == len(dictionary) == 9
    for h, est in zip(dictionary, together):
        assert est == _per_probe_fd(case, ens, h, 1e-2), h.label
        assert action_derivative_fd(case, ens, h, eps=1e-2) == est, h.label


def _counting_case(case, points, calls=None):
    # counts the points (x.size // 3) each field evaluator is asked for, and
    # its calls; the lock keeps the counts exact on worker threads
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


def test_fd_evaluates_drift_once_and_pressure_per_shift(tg_ensemble):
    # every path point sees u once, and p once per probe and sign; all
    # probes and signs of a block share one p call per step
    points, calls = {}, {}
    case = _counting_case(get_case("taylor_green"), points, calls)
    dictionary = default_dictionary()
    action_derivatives_fd(case, tg_ensemble, dictionary)
    n, m = tg_ensemble.n_paths, tg_ensemble.grid.steps
    blocks = -(-n // CHUNK_FLOOR)
    assert points == {"u": n * m, "p": 2 * m * len(dictionary) * n}
    assert calls["p"] <= m * blocks


def test_fd_chunks_evaluate_each_point_once(monkeypatch):
    # two workers and N above twice the block: three blocks, the last of
    # three paths, and still every path point sees u once and p once per
    # probe and sign
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base = get_case("taylor_green")
    n, m = 2 * CHUNK_FLOOR + 3, 6
    ens = simulate_pu(base, n, m, SEED)
    points, calls = {}, {}
    case = _counting_case(base, points, calls)
    dictionary = default_dictionary()
    action_derivatives_fd(case, ens, dictionary)
    assert points == {"u": n * m, "p": 2 * m * len(dictionary) * n}
    assert calls["p"] <= m * 3


def test_least_action_evaluates_each_point_once(monkeypatch):
    # u and grad p once per path point and k < M, over every block and
    # sub-block, and nothing else
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base = get_case("taylor_green")
    n, m = 2 * CHUNK_FLOOR + _CHECK_PATHS + 1, 5
    ens = simulate_pu(base, n, m, SEED)
    points = {}
    least_action_check(_counting_case(base, points), ens)
    assert points == {"u": n * m, "gradp": n * m}


def test_least_action_scratch_is_a_few_path_arrays(tg_ensemble):
    # beyond v (N, M+1, 3) and grad p (N, M, 3), the contractions may hold
    # no more than four (N, M) float64 arrays at once
    case = get_case("taylor_green")
    n, m = tg_ensemble.n_paths, tg_ensemble.grid.steps
    least_action_check(case, tg_ensemble)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        least_action_check(case, tg_ensemble)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    v_bytes, gp_bytes = n * (m + 1) * 3 * 8, n * m * 3 * 8
    assert peak < v_bytes + gp_bytes + 4 * n * m * 8


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
    hit = (tg_ensemble.positions[:, :-1, 0] > cut).any(axis=1)
    planar = [i for i, h in enumerate(dictionary) if h.label[-2:] in ("e1", "e2")]
    table = _analytic_table(bad, tg_ensemble, dictionary)
    assert hit.any() and len(planar) == 4
    assert np.isnan(table[np.ix_(planar, hit)]).all()
    assert np.array_equal(table[:, ~hit],
                          _analytic_table(case, tg_ensemble, dictionary)[:, ~hit])


@pytest.mark.parametrize("estimator", [least_action_check, action_derivatives_fd])
def test_criterion_3_scratch_does_not_grow_with_n(estimator):
    # both estimators keep O(block) scratch plus a (J, N) per-path table, so
    # four times the paths may not raise the allocation peak by half
    case = get_case("taylor_green")
    dictionary = default_dictionary()
    peaks = []
    for n in (4 * CHUNK_FLOOR, 16 * CHUNK_FLOOR):
        ens = simulate_pu(case, n, 50, SEED)
        with _threads("1"):
            tracemalloc.start()
            try:
                estimator(case, ens, dictionary)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


# block edges of the analytic sub-blocks, of run_chunks and of the simulation;
# e + 1 leaves a last block of one path
_EDGES = [e + d for e in (_CHECK_PATHS, CHUNK_FLOOR, CHUNK_FLOOR + _CHECK_PATHS,
                          2 * CHUNK_FLOOR, 3 * CHUNK_FLOOR, BLOCK_PATHS)
          for d in (-1, 0, 1)]


@settings(max_examples=20, deadline=None, database=None)
@given(name=st.sampled_from(["taylor_green", "lamb_oseen",
                             "frozen_taylor_green"]),
       n=st.one_of(st.sampled_from(_EDGES),
                   st.integers(2, _CHECK_PATHS - 1),
                   st.integers(CHUNK_FLOOR - 1, BLOCK_PATHS + 1)),
       m=st.integers(2, 12), seed=st.integers(0, 2**63 - 1))
def test_criterion_3_outputs_invariant_to_worker_count(name, n, m, seed):
    case = get_case(name)
    ens = simulate_pu(case, n, m, seed)
    dictionary = default_dictionary()
    outputs = []
    for threads in ("1", "2", "3", "8"):
        with _threads(threads):
            outputs.append((least_action_check(case, ens, dictionary),
                            action_derivatives_fd(case, ens, dictionary)))
    for other in outputs[1:]:
        assert other == outputs[0]


@pytest.mark.parametrize("n", [1, PIECE_PATHS - 1, PIECE_PATHS + 1, BLOCK_PATHS - 1,
                               BLOCK_PATHS + 1, 2 * BLOCK_PATHS + 5])
@settings(max_examples=5, deadline=None, database=None)
@given(name=st.sampled_from(["taylor_green", "lamb_oseen",
                             "frozen_taylor_green"]),
       m=st.integers(2, 12), seed=st.integers(0, 2**64 - 1))
def test_streamed_tables_equal_the_ensemble_estimators(n, name, m, seed):
    # criterion 3's tables, from simulation pieces and the drift the walk
    # used, equal both estimators on the simulated ensemble, bit for bit
    case = get_case(name)
    dictionary = default_dictionary()
    with _threads("1"):
        ens = simulate_pu(case, n, m, seed)
        want = (_analytic_table(case, ens, dictionary),
                _fd_table(case, ens, dictionary, 1e-2))
        if n >= 2:
            check = least_action_check(case, ens, dictionary)
            fd = action_derivatives_fd(case, ens, dictionary)
    for count in ("1", "2", "3", "8"):
        with _threads(count):
            got = criticality_tables(case, n, m, seed, dictionary)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want], count
        if n >= 2:
            assert criticality_report(dictionary, got[0]) == check
            assert [mean_with_error(row) for row in got[1]] == fd


def test_criterion_3_evaluates_u_once_per_path_point(monkeypatch):
    # per case: u at each path point with k < M once (the simulation's drift
    # feeds both estimators), grad p once there, and p once per probe and sign
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    points = {}
    get = catalog.get_case

    def counting_get_case(name):
        return _counting_case(get(name), points.setdefault(name, {}))

    monkeypatch.setattr(catalog, "get_case", counting_get_case)
    scale = suite.SuiteScale(n_paths=2 * PIECE_PATHS + 5, steps=5, seed=SEED)
    suite.run_criterion(3, scale)
    n, m, probes = scale.n_paths, scale.steps, len(default_dictionary())
    assert points == dict.fromkeys(
        ("taylor_green", "lamb_oseen", "frozen_taylor_green"),
        {"u": n * m, "gradp": n * m, "p": 2 * m * probes * n})


def test_fd_exact_for_locally_quadratic_pressure(zero_ensemble):
    # constant pressure has no curvature along h, so the central difference
    # reproduces the analytic derivative up to roundoff
    case = get_case("zero_flow")
    h = sine_perturbation(E1)
    a = action_derivative_analytic(case, zero_ensemble, h)
    f = action_derivative_fd(case, zero_ensemble, h, eps=5e-2)
    assert abs(a.value - f.value) <= 1e-12


def test_fd_eps_validation(tg_ensemble):
    case = get_case("taylor_green")
    h = sine_perturbation(E1)
    for bad in (0.0, 1e-5, 0.5):
        with pytest.raises(ValueError):
            action_derivative_fd(case, tg_ensemble, h, eps=bad)


def test_derivative_linear_in_h(tg_ensemble):
    case = get_case("taylor_green")
    d1 = action_derivative_analytic(case, tg_ensemble, sine_perturbation(E1))
    d2 = action_derivative_analytic(case, tg_ensemble, sine_perturbation(E2))
    dsum = action_derivative_analytic(case, tg_ensemble,
                                      sine_perturbation(E1 + E2))
    se = np.hypot(d1.std_error, d2.std_error)
    assert abs(dsum.value - (d1.value + d2.value)) <= max(3.0 * se, 1e-12)


def test_verdict_invariant_under_pressure_shift(tg_ensemble):
    base = get_case("taylor_green")
    shifted = FlowCase(
        name=base.name,           # same measure tag, same ensemble applies
        velocity=base.velocity,
        pressure=PressureField(
            eval=lambda t, x: base.pressure.eval(t, x) + 0.25,
            gradient=base.pressure.gradient,
            bound=base.pressure.bound + 0.25),
        is_exact_solution=base.is_exact_solution,
        symmetries=base.symmetries)
    for entry in default_dictionary():
        a = action_derivative_analytic(base, tg_ensemble, entry)
        b = action_derivative_analytic(shifted, tg_ensemble, entry)
        assert a.value == b.value and a.std_error == b.std_error


def test_least_action_verdicts_small_scale(tg_ensemble, frozen_ensemble):
    report = least_action_check(get_case("taylor_green"), tg_ensemble)
    assert report["verdict"] == "critical"
    assert len(report["entries"]) >= 9
    report = least_action_check(get_case("frozen_taylor_green"), frozen_ensemble)
    assert report["verdict"] == "not critical"
    assert report["max_abs_z"] >= 5.0
    triggering = [e for e in report["entries"] if abs(e["z"]) >= 5.0]
    assert any("gated" in e["h"] for e in triggering)


def test_least_action_entries_equal_analytic_derivative(tg_ensemble,
                                                        frozen_ensemble):
    for name, ens in (("taylor_green", tg_ensemble),
                      ("frozen_taylor_green", frozen_ensemble)):
        case = get_case(name)
        report = least_action_check(case, ens)
        for h, row in zip(default_dictionary(), report["entries"], strict=True):
            est = action_derivative_analytic(case, ens, h)
            assert row["h"] == h.label
            assert row["estimate"] == est.value
            assert row["std_error"] == est.std_error


def test_least_action_zero_flow(zero_ensemble):
    report = least_action_check(get_case("zero_flow"), zero_ensemble)
    assert report["verdict"] == "critical"
    assert report["max_abs_z"] == 0.0
    with pytest.raises(ValueError):
        least_action_check(get_case("zero_flow"), zero_ensemble, dictionary=[])


def test_least_action_needs_two_paths():
    case = get_case("zero_flow")
    with pytest.raises(ValueError, match="N >= 2"):
        least_action_check(case, simulate_pu(case, 1, 4, 1))
