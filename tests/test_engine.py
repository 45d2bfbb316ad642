import os

import numpy as np
import pytest

from lagrangeflow import (CapacityError, TagMismatchError, TimeGrid,
                          drift_process, dump_ensemble, dump_process,
                          get_case, load_ensemble, load_process,
                          process_to_csv, simulate_pu, simulate_wiener)
from lagrangeflow.engine import ProcessSample

from conftest import M_SMALL, N_SMALL, SEED


def test_time_grid():
    grid = TimeGrid(200)
    assert grid.times[0] == 0.0 and grid.times[-1] == 1.0
    assert np.allclose(np.diff(grid.times), grid.dt)
    with pytest.raises(ValueError):
        TimeGrid(0)


def test_paths_start_at_origin(tg_ensemble, wiener_ensemble):
    assert np.all(tg_ensemble.positions[:, 0, :] == 0.0)
    assert np.all(wiener_ensemble.positions[:, 0, :] == 0.0)


def test_wiener_increments_are_the_noise(wiener_ensemble):
    # the recursion identity, evaluated in the same operation order the
    # engine used, holds bit for bit
    x, noise = wiener_ensemble.positions, wiener_ensemble.noise
    assert np.array_equal(x[:, 1:, :], np.cumsum(noise, axis=1) + x[:, :1, :])
    for k in range(wiener_ensemble.grid.steps):
        assert np.array_equal(x[:, k + 1], x[:, k] + noise[:, k])


def test_pu_recursion_reconstructs_positions(tg_ensemble):
    # positions are exactly the Euler-Maruyama recursion of the stored noise
    case = get_case("taylor_green")
    x = tg_ensemble.positions
    grid = tg_ensemble.grid
    rebuilt = np.zeros_like(x[:, 0, :])
    for k in range(grid.steps):
        step = (-case.velocity.eval(1.0 - grid.times[k], rebuilt) * grid.dt
                + tg_ensemble.noise[:, k])
        rebuilt = rebuilt + step
        assert np.array_equal(x[:, k + 1, :], rebuilt)


def test_determinism_same_seed(tg_ensemble):
    again = simulate_pu(get_case("taylor_green"), N_SMALL, M_SMALL, SEED)
    assert np.array_equal(tg_ensemble.positions, again.positions)
    assert np.array_equal(tg_ensemble.noise, again.noise)


def test_worker_count_does_not_change_results():
    case = get_case("taylor_green")
    outputs = []
    old = os.environ.get("LAGRANGEFLOW_THREADS")
    try:
        for threads in ("1", "8"):
            os.environ["LAGRANGEFLOW_THREADS"] = threads
            outputs.append(simulate_pu(case, 3 * 8192 + 17, 10, 99))
    finally:
        if old is None:
            os.environ.pop("LAGRANGEFLOW_THREADS", None)
        else:
            os.environ["LAGRANGEFLOW_THREADS"] = old
    assert np.array_equal(outputs[0].positions, outputs[1].positions)
    assert np.array_equal(outputs[0].noise, outputs[1].noise)


def test_ensembles_are_immutable(tg_ensemble):
    with pytest.raises(ValueError):
        tg_ensemble.positions[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        tg_ensemble.noise[0, 0, 0] = 1.0


def test_zero_flow_paths_are_brownian(zero_ensemble):
    x = zero_ensemble.positions
    assert np.array_equal(x[:, -1, :], zero_ensemble.noise.sum(axis=1) + 0.0) or \
        np.allclose(x[:, -1, :], zero_ensemble.noise.sum(axis=1), atol=1e-12)
    cov_diag = x[:, -1, :].var(axis=0, ddof=1)
    assert np.all(np.abs(cov_diag - 1.0) <= 3.0 * np.sqrt(2.0 / x.shape[0]))


def test_wiener_moments(wiener_ensemble):
    x = wiener_ensemble.positions
    n, m = x.shape[0], wiener_ensemble.grid.steps
    for k in (m // 4, m // 2, m):
        t_k = k / m
        se = np.sqrt(t_k / n)
        assert np.all(np.abs(x[:, k, :].mean(axis=0)) <= 3.0 * se)
    half_var = x[:, m // 2, 0].var(ddof=1)
    assert abs(half_var - 0.5) <= 3.0 * 0.5 * np.sqrt(2.0 / n)


def test_pu_martingale_part_is_centred(tg_ensemble):
    # subtracting the accumulated drift leaves a mean-zero martingale
    case = get_case("taylor_green")
    grid = tg_ensemble.grid
    x = tg_ensemble.positions
    drift_sum = np.zeros((x.shape[0], 3))
    for k in range(grid.steps):
        drift_sum += -case.velocity.eval(1.0 - grid.times[k], x[:, k]) * grid.dt
    mart = x[:, -1, :] - drift_sum
    se = mart.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
    assert np.all(np.abs(mart.mean(axis=0)) <= 3.0 * se)


def test_drift_process_values(tg_ensemble, zero_ensemble):
    case = get_case("taylor_green")
    v = drift_process(case, tg_ensemble)
    assert v.values.shape == tg_ensemble.positions.shape
    # at t=0 every path sits at the origin where the field vanishes
    assert np.all(v.values[:, 0, :] == 0.0)
    assert np.linalg.norm(v.values, axis=-1).max() <= case.velocity.bound + 1e-12
    # step k reads the field at the reversed time 1 - t_k
    times = tg_ensemble.grid.times
    for k in range(tg_ensemble.grid.steps + 1):
        expected = -case.velocity.eval(1.0 - times[k], tg_ensemble.positions[:, k])
        assert np.array_equal(v.values[:, k], expected)
    zero = get_case("zero_flow")
    assert np.all(drift_process(zero, zero_ensemble).values == 0.0)


def test_drift_process_tag_mismatch(wiener_ensemble, tg_ensemble):
    case = get_case("taylor_green")
    with pytest.raises(TagMismatchError):
        drift_process(case, wiener_ensemble)
    with pytest.raises(TagMismatchError):
        drift_process(get_case("lamb_oseen"), tg_ensemble)


def test_capacity_error():
    with pytest.raises(CapacityError) as err:
        simulate_wiener(2**42, 8, 0)
    assert err.value.requested_bytes > 2**40


def test_simulation_preconditions():
    case = get_case("zero_flow")
    with pytest.raises(ValueError):
        simulate_pu(case, 0, 10, 0)
    with pytest.raises(ValueError):
        simulate_pu(case, 10, 1, 0)
    with pytest.raises(ValueError):
        simulate_pu(case, 10, 10, -3)


def test_ensemble_dump_round_trip(tmp_path, tg_ensemble):
    path = tmp_path / "tg.lgf"
    dump_ensemble(tg_ensemble, path)
    back = load_ensemble(path)
    assert back.measure_tag == tg_ensemble.measure_tag
    assert back.seed == tg_ensemble.seed
    assert np.array_equal(back.positions, tg_ensemble.positions)
    assert np.array_equal(back.noise, tg_ensemble.noise)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"LGF1"


def test_dump_load_dump_keeps_file_bytes(tmp_path):
    # three path blocks, the last one partial
    ens = simulate_pu(get_case("lamb_oseen"), 2 * 8192 + 5, 3, 17)
    first, second = tmp_path / "a.lgf", tmp_path / "b.lgf"
    dump_ensemble(ens, first)
    dump_ensemble(load_ensemble(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_time_slices_are_contiguous(tmp_path, tg_ensemble, wiener_ensemble):
    path = tmp_path / "tg.lgf"
    dump_ensemble(tg_ensemble, path)
    for ens in (tg_ensemble, wiener_ensemble, load_ensemble(path)):
        assert ens.positions.shape == (N_SMALL, M_SMALL + 1, 3)
        for k in (0, M_SMALL // 2, M_SMALL):
            assert ens.positions[:, k].flags.c_contiguous


def test_noise_is_regenerated_read_only(tg_ensemble):
    first, second = tg_ensemble.noise, tg_ensemble.noise
    assert first is not second
    assert np.array_equal(first, second)
    assert not first.flags.writeable
    assert first.shape == (N_SMALL, M_SMALL, 3)


def _header_size(path):
    tag_len = int.from_bytes(path.read_bytes()[20:28], "little")
    return 36 + tag_len


def test_ensemble_file_of_wrong_length_rejected(tmp_path, tg_ensemble):
    path = tmp_path / "tg.lgf"
    dump_ensemble(tg_ensemble, path)
    data = path.read_bytes()
    payload = len(data) - _header_size(path)
    for delta in (-8, 8):       # truncated, padded
        path.write_bytes(data[:-8] if delta < 0 else data + bytes(8))
        with pytest.raises(ValueError,
                           match=f"{payload + delta} bytes.*implies {payload}"):
            load_ensemble(path)
    path.write_bytes(data[:30])
    with pytest.raises(ValueError, match="header"):
        load_ensemble(path)


def test_ensemble_file_with_foreign_noise_rejected(tmp_path, tg_ensemble):
    path = tmp_path / "tg.lgf"
    dump_ensemble(tg_ensemble, path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01            # last byte of the last stored increment
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="noise"):
        load_ensemble(path)


def test_truncated_process_file_rejected(tmp_path, tg_ensemble):
    case = get_case("taylor_green")
    sample = drift_process(case, tg_ensemble)
    path = tmp_path / "drift.lgf"
    dump_process(sample, path)
    data = path.read_bytes()
    scalar = N_SMALL * (M_SMALL + 1) * 8
    # a third of the vector payload missing would once reload as width 2
    path.write_bytes(data[:_header_size(path) + 2 * scalar])
    with pytest.raises(ValueError, match=f"{2 * scalar} bytes.*{scalar}.*{3 * scalar}"):
        load_process(path)
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="bytes"):
        load_process(path)


def test_process_dump_round_trip(tmp_path, tg_ensemble):
    case = get_case("taylor_green")
    sample = drift_process(case, tg_ensemble)
    path = tmp_path / "drift.lgf"
    dump_process(sample, path, seed=tg_ensemble.seed)
    back = load_process(path)
    assert back.label == sample.label
    assert np.array_equal(back.values, sample.values)

    scalar = ProcessSample(sample.grid, sample.values[:, :, 0], "v1")
    dump_process(scalar, tmp_path / "v1.lgf")
    back = load_process(tmp_path / "v1.lgf")
    assert back.values.shape == scalar.values.shape

    process_to_csv(scalar, tmp_path / "v1.csv")
    header, first = (tmp_path / "v1.csv").read_text().splitlines()[:2]
    assert header == "t,mean"
    assert float(first.split(",")[0]) == 0.0


def test_weak_error_refinement_ratio():
    # Coupled refinement: the same Brownian driver at M, 2M and 4M.  The
    # terminal statistic E|X|^2 converges at first order, so successive
    # differences shrink by about two, and common random numbers keep the
    # Monte Carlo error of each difference below a third of its size.
    case = get_case("taylor_green")
    n, m_fine = 30000, 400
    fine = simulate_pu(case, n, m_fine, seed=51)

    def coarse_run(factor):
        m = m_fine // factor
        dt = 1.0 / m
        agg = fine.noise.reshape(n, m, factor, 3).sum(axis=2)
        x = np.zeros((n, 3))
        for k in range(m):
            x = x - case.velocity.eval(1.0 - k * dt, x) * dt + agg[:, k]
        return (x**2).sum(axis=-1)

    s100, s200 = coarse_run(4), coarse_run(2)
    s400 = (fine.positions[:, -1, :] ** 2).sum(axis=-1)
    d1, d2 = s100 - s200, s200 - s400
    for d in (d1, d2):
        assert d.std(ddof=1) / np.sqrt(n) < abs(d.mean()) / 3.0
    assert 1.5 <= d1.mean() / d2.mean() <= 3.0
