import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagrangeflow import (action_entropy_identity, case_names, estimate_Zp,
                          get_case, log_density_pu, mean_with_error,
                          relative_entropy, simulate_pu, simulate_wiener)
from lagrangeflow.engine import BLOCK_PATHS, CHUNK_FLOOR, PIECE_PATHS
from lagrangeflow.girsanov import drifted_path_functionals, pressure_integral

from conftest import M_SMALL, N_SMALL, SEED, counting_case, threads

SMALL = (N_SMALL, M_SMALL, SEED)        # the drifted fixtures' paths
WIENER = (N_SMALL, M_SMALL, SEED + 1)   # the wiener_ensemble fixture's paths


def _left_point_sum(term, ensemble):
    # whole-ensemble reference: per path, the sum over k = 0..M-1 of
    # term(1 - t_k, X_k, X_{k+1} - X_k), added from zero in increasing k
    times, x = ensemble.grid.times, ensemble.positions
    total = 0.0
    for k in range(ensemble.grid.steps):
        total += term(1.0 - times[k], x[:, k], x[:, k + 1] - x[:, k])
    return total


def _reference_rows(case, n, m, seed):
    # (ln dP_u/dmu, int p dt, action) by the left-point loop on the stored
    # simulate_pu ensemble, and (ln dP_u/dmu, int p dt) on the stored
    # simulate_wiener one, both at (n, m, seed)
    u, p, dt = case.velocity.eval, case.pressure.eval, 1.0 / m

    def density(t, x, dx):
        u_k = u(t, x)
        return np.stack([(u_k * dx).sum(axis=-1), (u_k**2).sum(axis=-1) * dt])

    def drifted(t, x, dx):
        u_k, p_k = u(t, x), p(t, x)
        sq = (u_k**2).sum(axis=-1)
        return np.stack([(u_k * dx).sum(axis=-1), sq * dt, p_k, 0.5 * sq - p_k])

    pu, wiener = simulate_pu(case, n, m, seed), simulate_wiener(n, m, seed)
    ito, energy, pressure, action = _left_point_sum(drifted, pu)
    w_ito, w_energy = _left_point_sum(density, wiener)
    w_pressure = _left_point_sum(lambda t, x, dx: p(t, x), wiener)
    return ((-ito - 0.5 * energy, pressure * dt, action * dt),
            (-w_ito - 0.5 * w_energy, w_pressure * dt))


def _walked_rows(case, n, m, seed):
    return (drifted_path_functionals(case, n, m, seed),
            (log_density_pu(case, n, m, seed), pressure_integral(case, n, m, seed)))


def _bytes(rows):
    return [[row.tobytes() for row in law] for law in rows]


def test_mean_with_error_matches_definition():
    rng = np.random.default_rng(5)
    x = rng.normal(size=257)
    est = mean_with_error(x)
    assert est.value == pytest.approx(x.mean())
    assert est.std_error == pytest.approx(x.std(ddof=1) / np.sqrt(x.size))
    assert est.n_samples == 257


def test_zero_flow_log_density_vanishes():
    case = get_case("zero_flow")
    assert np.all(log_density_pu(case, *WIENER) == 0.0)
    assert np.all(drifted_path_functionals(case, *SMALL)[0] == 0.0)


def test_log_density_mean_matches_energy(tg_ensemble):
    # on its own paths the log-density averages to half the path energy;
    # the pathwise difference is a discrete stochastic integral with mean 0
    case = get_case("taylor_green")
    grid = tg_ensemble.grid
    x = tg_ensemble.positions
    energy = np.zeros(x.shape[0])
    for k in range(grid.steps):
        u_k = case.velocity.eval(1.0 - grid.times[k], x[:, k])
        energy += (u_k**2).sum(axis=-1) * grid.dt
    diff = drifted_path_functionals(case, *SMALL)[0] - 0.5 * energy
    est = mean_with_error(diff)
    assert abs(est.value) <= 3.0 * est.std_error


@pytest.mark.parametrize("name", case_names())
def test_density_normalizes_on_wiener_paths(name):
    weights = np.exp(log_density_pu(get_case(name), *WIENER))
    est = mean_with_error(weights)
    assert abs(est.value - 1.0) <= 3.0 * est.std_error


class TestZp:
    def test_constant_pressure_is_exact(self):
        est = estimate_Zp(get_case("zero_flow"), *WIENER)
        assert est.value == pytest.approx(np.exp(0.5), abs=1e-12)
        assert est.std_error <= 1e-13

    def test_zero_pressure(self):
        from lagrangeflow import make_zero_flow
        est = estimate_Zp(make_zero_flow(0.0), *WIENER)
        assert est.value == pytest.approx(1.0, abs=1e-13)

    def test_taylor_green_range_and_seed_stability(self):
        case = get_case("taylor_green")
        est = estimate_Zp(case, *WIENER)
        assert 1.0 < est.value < np.e
        other = estimate_Zp(case, N_SMALL, M_SMALL, SEED + 7)
        combined = np.hypot(est.std_error, other.std_error)
        assert abs(est.value - other.value) <= 3.0 * combined


class TestRelativeEntropy:
    def test_zero_flow_against_itself(self):
        est = relative_entropy(get_case("zero_flow"), *SMALL)
        assert abs(est.value) <= 1e-12

    @pytest.mark.parametrize("name", ["taylor_green", "lamb_oseen",
                                      "frozen_taylor_green"])
    def test_nonnegative(self, name):
        est = relative_entropy(get_case(name), *SMALL)
        assert est.value >= -3.0 * est.std_error

    def test_matches_energy_form(self, tg_ensemble):
        # H = E[ln density] - E[int p] + ln Z with the first term replaced by
        # its closed (energy) form must agree within the combined error
        case = get_case("taylor_green")
        est = relative_entropy(case, *SMALL)
        grid = tg_ensemble.grid
        x = tg_ensemble.positions
        energy = np.zeros(x.shape[0])
        for k in range(grid.steps):
            u_k = case.velocity.eval(1.0 - grid.times[k], x[:, k])
            energy += (u_k**2).sum(axis=-1) * grid.dt
        closed = mean_with_error(0.5 * energy
                                 - drifted_path_functionals(case, *SMALL)[1])
        z = estimate_Zp(case, *WIENER)
        closed_value = closed.value + np.log(z.value)
        combined = np.hypot(est.std_error, closed.std_error)
        assert abs(est.value - closed_value) <= 3.0 * combined


class TestActionEntropyIdentity:
    def test_trivial_case_is_exact(self):
        rep = action_entropy_identity(get_case("zero_flow"), *SMALL)
        assert rep["S"].value == pytest.approx(-0.5, abs=1e-12)
        assert rep["H"].value == pytest.approx(0.0, abs=1e-12)
        assert rep["ln_Zp"].value == pytest.approx(0.5, abs=1e-12)
        assert rep["residual_minus"].value == pytest.approx(0.0, abs=1e-12)
        assert rep["residual_plus"].value == pytest.approx(-1.0, abs=1e-12)
        assert rep["identity_holds"]

    @pytest.mark.parametrize("name", ["taylor_green", "lamb_oseen"])
    def test_identity_within_budget(self, name):
        rep = action_entropy_identity(get_case(name), *SMALL)
        assert rep["identity_holds"]
        # the two conventions differ by 2 ln Z
        gap = rep["residual_minus"].value - rep["residual_plus"].value
        assert gap == pytest.approx(2.0 * rep["ln_Zp"].value, abs=1e-12)

    def test_residual_stays_small_under_refinement(self):
        # consistent with the residual vanishing under grid refinement: at
        # both resolutions it is within noise of zero, and far below 2/M
        case = get_case("taylor_green")
        for m in (M_SMALL, 2 * M_SMALL):
            res = action_entropy_identity(case, N_SMALL, m, SEED)["residual_minus"]
            assert abs(res.value) <= 3.0 * res.std_error


@pytest.mark.parametrize("name", case_names())
def test_one_walk_matches_the_separate_functionals(name):
    # the drifted walk's three rows, and the two Wiener walks' rows, equal
    # the left-point loop over the stored ensembles bit for bit
    case = get_case(name)
    assert _bytes(_walked_rows(case, 500, 20, SEED)) == _bytes(
        _reference_rows(case, 500, 20, SEED))


@settings(max_examples=12, deadline=None, database=None)
@given(name=st.sampled_from(case_names()),
       n=st.sampled_from([1, PIECE_PATHS - 1, PIECE_PATHS + 1, CHUNK_FLOOR - 1,
                          CHUNK_FLOOR + 1, BLOCK_PATHS + 1]),
       m=st.integers(2, 8), seed=st.integers(0, 2**64 - 1))
def test_walked_rows_equal_the_left_point_loop(name, n, m, seed):
    # at the edges of the pieces, the worker floor and the blocks, and at
    # every worker count, each walked row is the whole-ensemble loop's row
    case = get_case(name)
    with threads("1"):
        want = _bytes(_reference_rows(case, n, m, seed))
    for count in ("1", "2", "8"):
        with threads(count):
            assert _bytes(_walked_rows(case, n, m, seed)) == want, count


@pytest.mark.parametrize("name", ["taylor_green", "frozen_taylor_green"])
def test_identity_residual_is_the_ito_sum_of_each_path(name):
    # dX = -u dt + dW, so per path action - (ln dP_u/dmu - int p dt) is the
    # discrete Ito sum sum_k u(1 - t_k, X_k) . dW_k for any u, solution or not:
    # a sign or index slip in the functionals shows here, well inside the
    # 3 SE + 2/M budget criterion 4 allows
    case = get_case(name)
    n, m = 3000, 50
    log_density, pressure, action = drifted_path_functionals(case, n, m, SEED)
    pu = simulate_pu(case, n, m, SEED)
    x, noise, times = pu.positions, pu.noise, pu.grid.times
    ito = sum((case.velocity.eval(1.0 - times[k], x[:, k]) * noise[:, k]).sum(axis=-1)
              for k in range(m))
    assert np.abs(action - (log_density - pressure) - ito).max() <= 1e-12


def test_identity_evaluates_each_field_once_per_step():
    # u once per drifted path point with k < M, in the walk, whose drift the
    # functionals read back; p once per step and piece on each law; the
    # density on Wiener paths evaluates u there and no p
    n, m = N_SMALL, M_SMALL
    pieces = -(-n // PIECE_PATHS)
    points, calls = {}, {}
    case = counting_case(get_case("taylor_green"), points, calls)
    action_entropy_identity(case, n, m, SEED)
    assert points == {"u": n * m, "p": 2 * n * m}
    assert calls == {"u": m * pieces, "p": 2 * m * pieces}
    for functional, want in ((drifted_path_functionals, {"u": n * m, "p": n * m}),
                             (log_density_pu, {"u": n * m}),
                             (estimate_Zp, {"p": n * m})):
        points.clear()
        functional(case, n, m, SEED)
        assert points == want, functional.__name__
