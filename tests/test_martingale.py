from statistics import NormalDist

import numpy as np
import pytest

from lagrangeflow import (covariation, get_case, martingale_test,
                          richardson_bias_probe, simulate_pu, simulate_wiener)
from lagrangeflow.engine import GridMismatchError, ProcessSample
from lagrangeflow.noether import el_process

from conftest import M_SMALL, N_SMALL, SEED


def brownian_component(ensemble, i=0, label="brownian"):
    return ProcessSample(ensemble.grid, ensemble.positions[:, :, i], label)


def test_brownian_component_passes(wiener_ensemble):
    report = martingale_test(brownian_component(wiener_ensemble), wiener_ensemble)
    assert report.passed
    assert report.max_abs_z < report.threshold
    assert report.threshold == pytest.approx(
        NormalDist().inv_cdf(1 - 0.01 / (2 * 6 * M_SMALL)))


def test_deterministic_drift_fails_with_infinite_sentinel(wiener_ensemble):
    drift = ProcessSample(wiener_ensemble.grid,
                          np.broadcast_to(wiener_ensemble.grid.times,
                                          (N_SMALL, M_SMALL + 1)),
                          "unit_drift")
    report = martingale_test(drift, wiener_ensemble)
    assert not report.passed
    # increments of t_k are deterministic and positive: cells either carry the
    # infinite sentinel (zero variance) or an enormous finite z
    one_row = report.z[list(report.j_labels).index("one")]
    assert np.all(one_row > report.threshold)
    assert np.isinf(report.max_abs_z) or report.max_abs_z > 100.0


def test_constant_process_passes_with_zero_z(wiener_ensemble):
    const = ProcessSample(wiener_ensemble.grid,
                          np.zeros((N_SMALL, M_SMALL + 1)), "const")
    report = martingale_test(const, wiener_ensemble)
    assert report.passed and report.max_abs_z == 0.0


def test_accumulated_noise_products_are_martingale(wiener_ensemble):
    # P_k = sum_{j<k} dB^1_j dB^2_j: each increment has conditional mean zero
    # because the next increment pair is independent of the history
    prods = wiener_ensemble.noise[:, :, 0] * wiener_ensemble.noise[:, :, 1]
    values = np.zeros((N_SMALL, M_SMALL + 1))
    values[:, 1:] = np.cumsum(prods, axis=1)
    report = martingale_test(ProcessSample(wiener_ensemble.grid, values,
                                           "levy_area_like"), wiener_ensemble)
    assert report.passed


def test_single_path_rejected():
    ens = simulate_wiener(1, 4, 1)
    with pytest.raises(ValueError, match="N >= 2"):
        martingale_test(brownian_component(ens), ens)


def test_vector_sample_rejected(tg_ensemble):
    from lagrangeflow import drift_process
    v = drift_process(get_case("taylor_green"), tg_ensemble)
    with pytest.raises(ValueError):
        martingale_test(v, tg_ensemble)


def test_report_serialization(tmp_path, wiener_ensemble):
    report = martingale_test(brownian_component(wiener_ensemble), wiener_ensemble)
    d = report.to_dict()
    assert d["J"] == 6 and d["M_used"] == M_SMALL
    assert len(d["cells"]["z"]) == 6
    assert "final_cell_max_abs_z" in d
    report.z_matrix_csv(tmp_path / "z.csv")
    lines = (tmp_path / "z.csv").read_text().splitlines()
    assert lines[0].split(",") == list(report.j_labels)
    assert len(lines) == M_SMALL + 1


class TestCovariation:
    def test_brownian_quadratic_variation(self, wiener_ensemble):
        b1 = brownian_component(wiener_ensemble, 0)
        qv = covariation(b1, b1)
        terminal = qv.values[:, -1]
        se = terminal.std(ddof=1) / np.sqrt(N_SMALL)
        assert abs(terminal.mean() - 1.0) <= 3.0 * se

    def test_independent_components_have_zero_bracket(self, wiener_ensemble):
        qv = covariation(brownian_component(wiener_ensemble, 0),
                         brownian_component(wiener_ensemble, 1))
        terminal = qv.values[:, -1]
        se = terminal.std(ddof=1) / np.sqrt(N_SMALL)
        assert abs(terminal.mean()) <= 3.0 * se

    def test_finite_variation_cross_bracket_vanishes(self, wiener_ensemble):
        t_proc = ProcessSample(wiener_ensemble.grid,
                               np.broadcast_to(wiener_ensemble.grid.times,
                                               (N_SMALL, M_SMALL + 1)), "t")
        qv = covariation(t_proc, brownian_component(wiener_ensemble))
        terminal = qv.values[:, -1]
        se = terminal.std(ddof=1) / np.sqrt(N_SMALL)
        dt = wiener_ensemble.grid.dt
        assert abs(terminal.mean()) <= 3.0 * se + dt

    def test_symmetry_bit_exact(self, wiener_ensemble):
        a = brownian_component(wiener_ensemble, 0)
        b = brownian_component(wiener_ensemble, 1)
        assert np.array_equal(covariation(a, b).values, covariation(b, a).values)

    def test_power_of_two_scaling_bit_exact(self, wiener_ensemble):
        a = brownian_component(wiener_ensemble, 0)
        b = brownian_component(wiener_ensemble, 1)
        doubled = ProcessSample(a.grid, 2.0 * a.values, "2a")
        assert np.array_equal(covariation(doubled, b).values,
                              2.0 * covariation(a, b).values)

    def test_additivity_to_roundoff(self, wiener_ensemble):
        a = brownian_component(wiener_ensemble, 0)
        b = brownian_component(wiener_ensemble, 1)
        c = brownian_component(wiener_ensemble, 2)
        bc = ProcessSample(b.grid, b.values + c.values, "b+c")
        lhs = covariation(a, bc).values
        rhs = covariation(a, b).values + covariation(a, c).values
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_grid_mismatch(self, wiener_ensemble):
        other = simulate_wiener(100, M_SMALL // 2, 0)
        with pytest.raises(GridMismatchError):
            covariation(brownian_component(wiener_ensemble),
                        brownian_component(other))


class TestRichardsonProbe:
    def test_brownian_is_noise_dominated(self):
        def builder(steps, seed):
            ens = simulate_wiener(2000, steps, seed)
            return brownian_component(ens), ens

        probe = richardson_bias_probe(builder, 50, seed=SEED)
        assert probe["flag"] == "noise-dominated"

    def test_frozen_el_drift_is_resolution_independent(self):
        case = get_case("frozen_taylor_green")

        def builder(steps, seed):
            ens = simulate_pu(case, 6000, steps, seed)
            proc = el_process(case, ens)
            return ProcessSample(ens.grid, proc.values[:, :, 0], "el1"), ens

        probe = richardson_bias_probe(builder, 50, seed=SEED)
        assert probe["flag"] == "resolved"
        assert 0.5 <= probe["ratio"] <= 1.5
