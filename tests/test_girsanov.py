import collections
import dataclasses

import numpy as np
import pytest

from lagrangeflow import (TagMismatchError, action_entropy_identity,
                          case_names, estimate_Zp, get_case, log_density_pu,
                          mean_with_error, relative_entropy, simulate_pu,
                          simulate_wiener)
from lagrangeflow.engine import GridMismatchError
from lagrangeflow.girsanov import drifted_path_functionals, pressure_integral

from conftest import M_SMALL, N_SMALL, SEED


def test_mean_with_error_matches_definition():
    rng = np.random.default_rng(5)
    x = rng.normal(size=257)
    est = mean_with_error(x)
    assert est.value == pytest.approx(x.mean())
    assert est.std_error == pytest.approx(x.std(ddof=1) / np.sqrt(x.size))
    assert est.n_samples == 257


def test_zero_flow_log_density_vanishes(zero_ensemble):
    assert np.all(log_density_pu(get_case("zero_flow"), zero_ensemble) == 0.0)


def test_log_density_mean_matches_energy(tg_ensemble):
    # on its own ensemble the log-density averages to half the path energy;
    # the pathwise difference is a discrete stochastic integral with mean 0
    case = get_case("taylor_green")
    grid = tg_ensemble.grid
    x = tg_ensemble.positions
    energy = np.zeros(x.shape[0])
    for k in range(grid.steps):
        u_k = case.velocity.eval(1.0 - grid.times[k], x[:, k])
        energy += (u_k**2).sum(axis=-1) * grid.dt
    diff = log_density_pu(case, tg_ensemble) - 0.5 * energy
    est = mean_with_error(diff)
    assert abs(est.value) <= 3.0 * est.std_error


@pytest.mark.parametrize("name", case_names())
def test_density_normalizes_on_wiener_paths(name, wiener_ensemble):
    weights = np.exp(log_density_pu(get_case(name), wiener_ensemble))
    est = mean_with_error(weights)
    assert abs(est.value - 1.0) <= 3.0 * est.std_error


class TestZp:
    def test_constant_pressure_is_exact(self, wiener_ensemble):
        est = estimate_Zp(get_case("zero_flow"), wiener_ensemble)
        assert est.value == pytest.approx(np.exp(0.5), abs=1e-12)
        assert est.std_error <= 1e-13

    def test_zero_pressure(self, wiener_ensemble):
        from lagrangeflow import make_zero_flow
        est = estimate_Zp(make_zero_flow(0.0), wiener_ensemble)
        assert est.value == pytest.approx(1.0, abs=1e-13)

    def test_taylor_green_range_and_seed_stability(self, wiener_ensemble):
        case = get_case("taylor_green")
        est = estimate_Zp(case, wiener_ensemble)
        assert 1.0 < est.value < np.e
        other = estimate_Zp(case, simulate_wiener(N_SMALL, M_SMALL, SEED + 7))
        combined = np.hypot(est.std_error, other.std_error)
        assert abs(est.value - other.value) <= 3.0 * combined

    def test_requires_wiener_ensemble(self, tg_ensemble):
        with pytest.raises(TagMismatchError):
            estimate_Zp(get_case("taylor_green"), tg_ensemble)


class TestRelativeEntropy:
    def test_zero_flow_against_itself(self, zero_ensemble, wiener_ensemble):
        est = relative_entropy(get_case("zero_flow"), zero_ensemble,
                               wiener_ensemble)
        assert abs(est.value) <= 1e-12

    @pytest.mark.parametrize("name", ["taylor_green", "lamb_oseen",
                                      "frozen_taylor_green"])
    def test_nonnegative(self, name, wiener_ensemble):
        case = get_case(name)
        pu = simulate_pu(case, N_SMALL, M_SMALL, SEED)
        est = relative_entropy(case, pu, wiener_ensemble)
        assert est.value >= -3.0 * est.std_error

    def test_matches_energy_form(self, tg_ensemble, wiener_ensemble):
        # H = E[ln density] - E[int p] + ln Z with the first term replaced by
        # its closed (energy) form must agree within the combined error
        case = get_case("taylor_green")
        est = relative_entropy(case, tg_ensemble, wiener_ensemble)
        grid = tg_ensemble.grid
        x = tg_ensemble.positions
        energy = np.zeros(x.shape[0])
        for k in range(grid.steps):
            u_k = case.velocity.eval(1.0 - grid.times[k], x[:, k])
            energy += (u_k**2).sum(axis=-1) * grid.dt
        closed = mean_with_error(0.5 * energy
                                 - pressure_integral(case, tg_ensemble))
        z = estimate_Zp(case, wiener_ensemble)
        closed_value = closed.value + np.log(z.value)
        combined = np.hypot(est.std_error, closed.std_error)
        assert abs(est.value - closed_value) <= 3.0 * combined

    def test_grid_mismatch(self, tg_ensemble):
        case = get_case("taylor_green")
        with pytest.raises(GridMismatchError):
            relative_entropy(case, tg_ensemble,
                             simulate_wiener(100, M_SMALL // 2, 1))


class TestActionEntropyIdentity:
    def test_trivial_case_is_exact(self, zero_ensemble, wiener_ensemble):
        rep = action_entropy_identity(get_case("zero_flow"), zero_ensemble,
                                      wiener_ensemble)
        assert rep["S"].value == pytest.approx(-0.5, abs=1e-12)
        assert rep["H"].value == pytest.approx(0.0, abs=1e-12)
        assert rep["ln_Zp"].value == pytest.approx(0.5, abs=1e-12)
        assert rep["residual_minus"].value == pytest.approx(0.0, abs=1e-12)
        assert rep["residual_plus"].value == pytest.approx(-1.0, abs=1e-12)
        assert rep["identity_holds"]

    @pytest.mark.parametrize("name", ["taylor_green", "lamb_oseen"])
    def test_identity_within_budget(self, name, wiener_ensemble):
        case = get_case(name)
        pu = simulate_pu(case, N_SMALL, M_SMALL, SEED)
        rep = action_entropy_identity(case, pu, wiener_ensemble)
        assert rep["identity_holds"]
        # the two conventions differ by 2 ln Z
        gap = rep["residual_minus"].value - rep["residual_plus"].value
        assert gap == pytest.approx(2.0 * rep["ln_Zp"].value, abs=1e-12)

    def test_residual_stays_small_under_refinement(self, wiener_ensemble):
        # consistent with the residual vanishing under grid refinement: at
        # both resolutions it is within noise of zero, and far below 2/M
        case = get_case("taylor_green")
        for m in (M_SMALL, 2 * M_SMALL):
            pu = simulate_pu(case, N_SMALL, m, SEED)
            w = simulate_wiener(N_SMALL, m, SEED + 1)
            rep = action_entropy_identity(case, pu, w)
            res = rep["residual_minus"]
            assert abs(res.value) <= 3.0 * res.std_error


@pytest.mark.parametrize("name", case_names())
def test_one_walk_matches_the_separate_functionals(name):
    # the drifted walk's three rows equal the single-purpose functionals and
    # a per-step action loop bit for bit
    case = get_case(name)
    pu = simulate_pu(case, 500, 20, SEED)
    log_density, pressure, action = drifted_path_functionals(case, pu)
    assert np.array_equal(log_density, log_density_pu(case, pu))
    assert np.array_equal(pressure, pressure_integral(case, pu))
    grid, x = pu.grid, pu.positions
    total = 0.0
    for k in range(grid.steps):
        t = 1.0 - grid.times[k]
        total += (0.5 * (case.velocity.eval(t, x[:, k])**2).sum(axis=-1)
                  - case.pressure.eval(t, x[:, k]))
    assert np.array_equal(action, total * grid.dt)


def test_identity_evaluates_each_field_once_per_step(tg_ensemble, wiener_ensemble):
    # u and p once per step on the drifted paths, p once per step on the
    # Wiener paths; the density on Wiener paths evaluates no pressure
    base = get_case("taylor_green")
    slices = collections.Counter()

    def counted(kind, fn):
        def wrapped(t, x):
            drifted = np.may_share_memory(x, tg_ensemble.positions)
            slices[kind, "pu" if drifted else "wiener"] += 1
            return fn(t, x)
        return wrapped

    case = dataclasses.replace(
        base,
        velocity=dataclasses.replace(base.velocity,
                                     eval=counted("u", base.velocity.eval)),
        pressure=dataclasses.replace(base.pressure,
                                     eval=counted("p", base.pressure.eval)))
    m = tg_ensemble.grid.steps
    action_entropy_identity(case, tg_ensemble, wiener_ensemble)
    assert slices == {("u", "pu"): m, ("p", "pu"): m, ("p", "wiener"): m}
    slices.clear()
    log_density_pu(case, wiener_ensemble)
    assert slices == {("u", "wiener"): m}
