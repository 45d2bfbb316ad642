import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

import reference
from lagrangeflow import (get_case, martingale_test, richardson_bias_probe,
                          simulate_pu, simulate_wiener)
from lagrangeflow.engine import ProcessSample
from lagrangeflow.martingale import TEST_FUNCTIONS, bonferroni_quantile
from lagrangeflow.noether import el_process

from conftest import M_SMALL, N_SMALL, SEED


def brownian_component(ensemble, i=0, label="brownian"):
    return ProcessSample(ensemble, ensemble.positions[:, :, i], label)


def test_brownian_component_passes(wiener_ensemble):
    report = martingale_test(brownian_component(wiener_ensemble))
    assert report.passed
    assert report.max_abs_z < report.threshold
    assert report.threshold == pytest.approx(
        NormalDist().inv_cdf(1 - 0.01 / (2 * 6 * M_SMALL)))


def test_deterministic_drift_fails_with_infinite_sentinel(wiener_ensemble):
    drift = ProcessSample(wiener_ensemble,
                          np.broadcast_to(wiener_ensemble.grid.times,
                                          (N_SMALL, M_SMALL + 1)),
                          "unit_drift")
    report = martingale_test(drift)
    assert not report.passed
    # increments of t_k are deterministic and positive: cells either carry the
    # infinite sentinel (zero variance) or an enormous finite z
    one_row = report.z[list(report.j_labels).index("one")]
    assert np.all(one_row > report.threshold)
    assert np.isinf(report.max_abs_z) or report.max_abs_z > 100.0


def test_constant_process_passes_with_zero_z(wiener_ensemble):
    const = ProcessSample(wiener_ensemble, np.zeros((N_SMALL, M_SMALL + 1)), "const")
    report = martingale_test(const)
    assert report.passed and report.max_abs_z == 0.0


def test_accumulated_noise_products_are_martingale(wiener_ensemble):
    # P_k = sum_{j<k} dB^1_j dB^2_j: each increment has conditional mean zero
    # because the next increment pair is independent of the history
    noise = reference.increments(N_SMALL, M_SMALL, SEED + 1)
    prods = noise[:, :, 0] * noise[:, :, 1]
    values = np.zeros((N_SMALL, M_SMALL + 1))
    values[:, 1:] = np.cumsum(prods, axis=1)
    report = martingale_test(ProcessSample(wiener_ensemble, values, "levy_area_like"))
    assert report.passed


def test_single_path_rejected():
    ens = simulate_wiener(1, 4, 1)
    with pytest.raises(ValueError, match="N >= 2"):
        martingale_test(brownian_component(ens))


def test_vector_sample_rejected(tg_ensemble):
    from lagrangeflow import drift_process
    v = drift_process(tg_ensemble)
    with pytest.raises(ValueError):
        martingale_test(v)


def test_samples_of_different_n_refused():
    # values must lie on the ensemble's N paths: fewer or more are refused;
    # with one ensemble path, broadcasting would spread its coordinates over
    # all 500 sample paths and the test would pass
    values = simulate_wiener(500, M_SMALL, 3).positions[:, :, 0]
    for n in (1000, 300, 1):
        ens = simulate_wiener(n, M_SMALL, 4)
        with pytest.raises(ValueError, match=r"values of shape \(500, 101\) are not "
                           f"on the ensemble's {n} paths and {M_SMALL + 1} times"):
            ProcessSample(ens, values, "brownian")


def test_grid_mismatch(wiener_ensemble):
    # values must lie on the ensemble's M+1 times: a coarser or finer grid is
    # refused
    coarser = simulate_wiener(N_SMALL, M_SMALL // 2, 0)
    for values, ens in ((wiener_ensemble.positions[:, :, 0], coarser),
                        (coarser.positions[:, :, 0], wiener_ensemble)):
        with pytest.raises(ValueError, match=f"are not on the ensemble's {N_SMALL} "
                           f"paths and {ens.grid.steps + 1} times"):
            ProcessSample(ens, values, "brownian")


def test_report_serialization(wiener_ensemble):
    report = martingale_test(brownian_component(wiener_ensemble))
    d = report.to_dict()
    assert d["J"] == 6 and d["M_used"] == M_SMALL
    # the order of reference.martingale_cells' test functions
    assert d["j_labels"] == ["one", "x1", "x2", "x3", "self", "clip_sq"]
    assert len(d["cells"]["z"]) == 6
    assert "final_cell_max_abs_z" in d


def test_scratch_is_four_path_arrays(wiener_ensemble):
    # increments, the previous and the current product, and std's temporary;
    # no (N, M) array of ones and no (N, M, 3) squares
    sample = brownian_component(wiener_ensemble)
    martingale_test(sample)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        martingale_test(sample)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4.1 * N_SMALL * M_SMALL * 8


class TestRichardsonProbe:
    def test_brownian_is_noise_dominated(self):
        def builder(steps, seed):
            return brownian_component(simulate_wiener(2000, steps, seed))

        probe = richardson_bias_probe(builder, 50, seed=SEED)
        assert probe["flag"] == "noise-dominated"

    def test_frozen_el_drift_is_resolution_independent(self):
        case = get_case("frozen_taylor_green")

        def builder(steps, seed):
            ens = simulate_pu(case, 6000, steps, seed)
            return ProcessSample(ens, el_process(ens).values[:, :, 0], "el1")

        probe = richardson_bias_probe(builder, 50, seed=SEED)
        assert probe["flag"] == "resolved"
        assert 0.5 <= probe["ratio"] <= 1.5


@pytest.mark.parametrize("alpha", [0.01, 0.05, 1e-6, 1.4e-13])
@pytest.mark.parametrize("steps", [2, 50, 200])
def test_bonferroni_quantile_is_the_tests_threshold_bit_for_bit(alpha, steps):
    # the expressions martingale_test and criticality_report wrote inline
    cells = len(TEST_FUNCTIONS) * steps
    want = NormalDist().inv_cdf(1.0 - alpha / (2.0 * len(TEST_FUNCTIONS) * steps))
    assert bonferroni_quantile(alpha, cells) == want
    assert bonferroni_quantile(alpha, 9) == NormalDist().inv_cdf(1.0 - alpha / (2.0 * 9))


def test_bonferroni_quantile_refuses_an_alpha_that_rounds_away():
    # 1 - alpha / (2 cells) == 1.0 has no finite quantile
    for alpha, cells in ((1e-17, 9), (1.2e-13, 1200)):
        with pytest.raises(ValueError, match="alpha"):
            bonferroni_quantile(alpha, cells)
    assert np.isfinite(bonferroni_quantile(1.4e-13, 1200))
