import hashlib
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import reference
from hypothesis import given, settings, strategies as st

from lagrangeflow import (CapacityError, TimeGrid, drift_process, get_case,
                          simulate_pu, simulate_wiener, worker_count)
from lagrangeflow.engine import (BLOCK_PATHS, CHUNK_FLOOR, PIECE_PATHS, check_capacity,
                                 walk_pieces)

from conftest import M_SMALL, N_SMALL, SEED, threads


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
    x, noise = wiener_ensemble.positions, reference.increments(N_SMALL, M_SMALL, SEED + 1)
    assert np.array_equal(x[:, 1:, :], np.cumsum(noise, axis=1) + x[:, :1, :])
    for k in range(wiener_ensemble.grid.steps):
        assert np.array_equal(x[:, k + 1], x[:, k] + noise[:, k])


def test_pu_recursion_reconstructs_positions(tg_ensemble):
    # positions are exactly the Euler-Maruyama recursion of the increments
    want = reference.positions(get_case("taylor_green"), N_SMALL, M_SMALL, SEED)
    assert tg_ensemble.positions.tobytes() == want.tobytes()


def test_determinism_same_seed(tg_ensemble):
    again = simulate_pu(get_case("taylor_green"), N_SMALL, M_SMALL, SEED)
    assert np.array_equal(tg_ensemble.positions, again.positions)


def test_worker_count_does_not_change_results(monkeypatch):
    # eight usable cores, so eight threads run on any box
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    case = get_case("taylor_green")
    outputs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("LAGRANGEFLOW_THREADS", threads)
        assert worker_count() == int(threads)
        outputs.append(simulate_pu(case, 3 * 8192 + 17, 10, 99))
    assert np.array_equal(outputs[0].positions, outputs[1].positions)


@pytest.mark.parametrize("n", [1, CHUNK_FLOOR - 1, CHUNK_FLOOR + 1, BLOCK_PATHS - 1,
                               BLOCK_PATHS + 1, 2 * BLOCK_PATHS + 5])
@settings(max_examples=4, deadline=None, database=None)
@given(name=st.sampled_from(["taylor_green", "lamb_oseen", None]),
       steps=st.integers(2, 5), seed=st.integers(0, 2**64 - 1),
       count=st.sampled_from(["1", "2"]))
def test_pieces_equal_whole_block_draws(n, name, steps, seed, count):
    # walked in pieces, the paths are those of one draw per 8192-path block
    # walked whole
    case = None if name is None else get_case(name)
    with threads(count):
        ens = (simulate_wiener(n, steps, seed) if case is None
               else simulate_pu(case, n, steps, seed))
    assert ens.positions.tobytes() == reference.positions(case, n, steps, seed).tobytes()


def test_pieces_are_walked_once_under_thread_switching():
    # eight workers on a 1 us switch interval: every piece is walked once,
    # with the positions and drifts a single worker computes
    case = get_case("lamb_oseen")
    n, m = 2 * BLOCK_PATHS + 3 * PIECE_PATHS + 7, 4
    seen, lock = [], threading.Lock()

    def visit(lo, x, v):
        with lock:
            seen.append((lo, x.shape[1]))
        assert np.array_equal(x.transpose(1, 0, 2), want.positions[lo:lo + x.shape[1]])
        for k in range(m):
            assert np.array_equal(v[:, k], -case.velocity.eval(1.0 - k / m, x[k]))

    with threads("1"):
        want = simulate_pu(case, n, m, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with threads("8"):
            walk_pieces(case, n, m, 5, visit)
            got = simulate_pu(case, n, m, 5)
    finally:
        sys.setswitchinterval(interval)
    pieces = [(lo, min(PIECE_PATHS, n - lo)) for lo in range(0, n, PIECE_PATHS)]
    assert sorted(seen) == pieces
    assert np.array_equal(got.positions, want.positions)


def test_simulation_scratch_is_one_piece(monkeypatch):
    # increments are drawn CHUNK_FLOOR paths at a time, not a whole block
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "1")
    n, m = BLOCK_PATHS, 50
    tracemalloc.start()
    try:
        simulate_pu(get_case("lamb_oseen"), n, m, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (m + 1) * n * 3 * 8 < 1.25 * CHUNK_FLOOR * m * 3 * 8


def test_worker_count_capped_at_usable_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "8")
    assert worker_count() == 2
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.delenv("LAGRANGEFLOW_THREADS")
    assert worker_count() == 2


def test_ensembles_are_immutable(tg_ensemble):
    with pytest.raises(ValueError):
        tg_ensemble.positions[0, 0, 0] = 1.0


def test_zero_flow_paths_are_brownian(zero_ensemble):
    # -0 dt + dW is dW exactly, so each path is the running sum of its increments
    x = zero_ensemble.positions
    want = np.cumsum(reference.increments(N_SMALL, M_SMALL, SEED), axis=1)
    assert x[:, 1:].tobytes() == want.tobytes()
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
    v = drift_process(tg_ensemble)
    assert v.values.shape == tg_ensemble.positions.shape
    # at t=0 every path sits at the origin where the field vanishes
    assert np.all(v.values[:, 0, :] == 0.0)
    assert np.linalg.norm(v.values, axis=-1).max() <= case.velocity.bound + 1e-12
    # step k reads the field at the reversed time 1 - t_k
    times = tg_ensemble.grid.times
    for k in range(tg_ensemble.grid.steps + 1):
        expected = -case.velocity.eval(1.0 - times[k], tg_ensemble.positions[:, k])
        assert np.array_equal(v.values[:, k], expected)
    assert np.all(drift_process(zero_ensemble).values == 0.0)


def test_capacity_error():
    with pytest.raises(CapacityError) as err:
        simulate_wiener(2**42, 8, 0)
    assert err.value.requested_bytes > 2**40


def test_capacity_rule_refuses_what_numpy_cannot_index():
    # numpy tries (and here fails) to allocate up to 2**63 - 1 bytes and
    # refuses one float64 more with a ValueError; the rule draws that line
    most = np.iinfo(np.intp).max // 8
    with pytest.raises(MemoryError):
        np.empty(most)
    with pytest.raises(ValueError):
        np.empty(most + 1)
    assert check_capacity(most) == 8 * most
    with pytest.raises(CapacityError) as err:
        check_capacity(most + 1)
    assert err.value.requested_bytes == 8 * (most + 1)
    with pytest.raises(CapacityError):
        simulate_wiener(10**20, 4, 0)
    with pytest.raises(CapacityError):
        TimeGrid(10**20).times


def test_simulation_preconditions():
    case = get_case("zero_flow")
    with pytest.raises(ValueError):
        simulate_pu(case, 0, 10, 0)
    with pytest.raises(ValueError):
        simulate_pu(case, 10, 1, 0)
    with pytest.raises(ValueError):
        simulate_pu(case, 10, 10, -3)
    # the Philox key holds 64 bits; 2**64 would alias 0
    with pytest.raises(ValueError):
        simulate_pu(case, 10, 10, 2**64)


def test_seeds_in_the_top_half_keep_their_own_streams():
    # the key is two uint64 words; a Python list would pass the seed through
    # float64 from 2**63 on, so neighbouring seeds shared one stream
    a, b = (simulate_wiener(10, 3, 2**63 + i).positions for i in (4, 5))
    assert not np.array_equal(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = simulate_wiener(10, 3, 2**64 - 1)
    assert np.all(np.isfinite(top.positions))
    # below 2**63 the streams are the ones a list key [seed, block] gives
    for seed in (0, 7, 2**62, 2**63 - 1):
        gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
        want = gen.standard_normal((10, 3, 3)) * np.sqrt(1.0 / 3)
        assert np.array_equal(reference.increments(10, 3, seed), want)
        assert np.array_equal(simulate_wiener(10, 3, seed).positions[:, 1:],
                              np.cumsum(want, axis=1))


def test_dump_bytes_are_pinned():
    # three pieces of one path block, the last of three paths; Wiener paths
    # carry no transcendental drift, so the bytes do not depend on libm.
    # Positions, then the reference's increments, both path-major
    # little-endian float64: the reference draws the engine's numbers.
    ens = simulate_wiener(2 * CHUNK_FLOOR + 3, 4, 7)
    data = (np.ascontiguousarray(ens.positions, "<f8").tobytes()
            + reference.increments(2 * CHUNK_FLOOR + 3, 4, 7).astype("<f8").tobytes())
    assert hashlib.sha256(data).hexdigest() == (
        "fdd37aaf05accb6437d9f6d3f2647dfd73f69e2f3a8868da9a01c5e173c275ea")


def test_time_slices_are_contiguous(tg_ensemble, wiener_ensemble):
    for ens in (tg_ensemble, wiener_ensemble):
        assert ens.positions.shape == (N_SMALL, M_SMALL + 1, 3)
        for k in (0, M_SMALL // 2, M_SMALL):
            assert ens.positions[:, k].flags.c_contiguous


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
        agg = reference.increments(n, m_fine, 51).reshape(n, m, factor, 3).sum(axis=2)
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
