import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, interpolate, special

import lagrangeflow
from lagrangeflow import (ROTATION_E3, TRANSLATION_E3, case_names,
                          fd_residual_oracle, get_case, make_lamb_oseen,
                          make_zero_flow, ns_residual, probe_grid,
                          probe_residuals, rotated_case, symmetry_check)
from lagrangeflow.catalog import _G, _G_TABLE, _h, _load_table

TABLE = Path(lagrangeflow.__file__).with_name("pressure_profile.npy")


@functools.cache
def pressure_spline():
    """The recipe of the committed table pressure_profile.npy, which was made
    with scipy 1.17.1: G(eta) = int_0^eta h(s)^2 ds by adaptive quadrature on
    each of the 2000 intervals between 2001 even knots on [0, 40], summed and
    interpolated by a not-a-knot cubic spline.  To remake the table, save
    np.ascontiguousarray(pressure_spline().c) with np.save(..., allow_pickle=False)
    and put the file's sha256 in catalog._G_TABLE_SHA256."""
    knots = np.linspace(0.0, 40.0, 2001)
    pieces = [0.0]
    for a, b in zip(knots[:-1], knots[1:]):
        val, _ = integrate.quad(lambda s: _h(s) ** 2, a, b, limit=100)
        pieces.append(val)
    return interpolate.CubicSpline(knots, np.cumsum(pieces))


ALL_CASES = case_names()
EXACT_CASES = [n for n in ALL_CASES if get_case(n).is_exact_solution]


def test_catalog_contents():
    assert ALL_CASES == ["frozen_taylor_green", "lamb_oseen", "taylor_green",
                         "taylor_green_rotated", "zero_flow"]
    assert get_case("frozen_taylor_green").is_exact_solution is False
    assert "rotation_e3" in get_case("lamb_oseen").symmetries
    assert get_case("taylor_green").symmetries == {"translation_e3"}


@pytest.mark.parametrize("name", ALL_CASES)
def test_probe_grid_invariants(name):
    case = get_case(name)
    diag = probe_residuals(case)
    assert diag["max_fd_discrepancy"] <= 1e-4
    assert diag["max_abs_divergence"] <= 1e-10
    assert diag["min_pressure"] >= -1e-12
    if case.is_exact_solution:
        assert diag["max_abs_residual"] <= case.residual_tol
    else:
        assert diag["max_abs_residual"] >= 0.5


@pytest.mark.parametrize("name", ALL_CASES)
def test_pressure_and_velocity_bounds(name):
    case = get_case(name)
    times, points = probe_grid()
    for t in times:
        speed = np.linalg.norm(case.velocity.eval(float(t), points), axis=-1)
        assert speed.max() <= case.velocity.bound + 1e-12
        p = case.pressure.eval(float(t), points)
        assert p.min() >= -1e-12 and p.max() <= case.pressure.bound + 1e-12


@pytest.mark.parametrize("name", ALL_CASES)
def test_curl_matches_jacobian_exactly(name):
    case = get_case(name)
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, size=(50, 3))
    J = case.velocity.jacobian(0.4, x)
    expected = np.stack([J[..., 2, 1] - J[..., 1, 2],
                         J[..., 0, 2] - J[..., 2, 0],
                         J[..., 1, 0] - J[..., 0, 1]], axis=-1)
    assert np.array_equal(case.velocity.curl(0.4, x), expected)


def test_taylor_green_point_values():
    case = get_case("taylor_green")
    p0 = np.array([0.0, np.pi / 2, 0.0])
    assert np.allclose(case.velocity.eval(0.0, p0), [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(case.velocity.eval(np.log(2.0), p0), [0.5, 0.0, 0.0],
                       atol=1e-15)
    # constant shift puts the pressure minimum at exactly zero
    assert case.pressure.eval(0.0, np.zeros(3)) == pytest.approx(0.0, abs=1e-15)
    assert case.pressure.eval(0.0, np.array([np.pi / 2, np.pi / 2, 0.0])) == \
        pytest.approx(1.0, abs=1e-12)


def test_taylor_green_residual_examples():
    case = get_case("taylor_green")
    p0 = np.array([0.0, np.pi / 2, 0.0])
    resid, div = ns_residual(case, 0.0, p0)
    assert np.abs(resid).max() <= 1e-10
    assert abs(div) <= 1e-12
    fd = fd_residual_oracle(case, 0.0, p0, step=1e-4)
    assert np.abs(fd - resid).max() <= 1e-6


def test_frozen_taylor_green_residual_equals_field():
    case = get_case("frozen_taylor_green")
    p0 = np.array([0.0, np.pi / 2, 0.0])
    resid, _ = ns_residual(case, 0.0, p0)
    assert np.allclose(resid, [1.0, 0.0, 0.0], atol=1e-12)
    fd = fd_residual_oracle(case, 0.0, p0, step=1e-4)
    assert np.abs(fd - np.array([1.0, 0.0, 0.0])).max() <= 1e-6


def test_zero_flow_examples():
    case = make_zero_flow(0.5)
    x = np.array([0.3, -1.2, 2.0])
    resid, div = ns_residual(case, 0.7, x)
    assert np.all(resid == 0.0) and div == 0.0
    assert np.all(fd_residual_oracle(case, 0.7, x, step=1e-3) == 0.0)
    with pytest.raises(ValueError):
        make_zero_flow(-1.0)


def test_fd_oracle_second_order_convergence():
    # Richardson ratio at an interior point: halving the step divides the
    # discrepancy by about four.
    case = get_case("taylor_green")
    x = np.array([1.0, 1.0, 0.0])
    exact, _ = ns_residual(case, 0.5, x)
    err_coarse = np.abs(fd_residual_oracle(case, 0.5, x, step=1e-3) - exact).max()
    err_fine = np.abs(fd_residual_oracle(case, 0.5, x, step=5e-4) - exact).max()
    assert 3.0 <= err_coarse / err_fine <= 5.0
    with pytest.raises(ValueError):
        fd_residual_oracle(case, 0.5, x, step=0.0)


def test_fd_oracle_clamps_time_endpoints():
    case = get_case("taylor_green")
    x = np.array([0.7, -0.4, 0.3])
    for t in (0.0, 1.0):
        exact, _ = ns_residual(case, t, x)
        fd = fd_residual_oracle(case, t, x, step=1e-3)
        assert np.abs(fd - exact).max() <= 1e-4


class TestLambOseen:
    def test_core_vorticity(self):
        case = get_case("lamb_oseen")
        origin = np.zeros(3)
        assert case.velocity.curl(0.0, origin)[..., 2] == pytest.approx(1.0, abs=1e-12)
        # finite-difference curl as the independent check
        h = 1e-4
        e1, e2 = np.array([h, 0, 0]), np.array([0, h, 0])
        fd_curl = ((case.velocity.eval(0.0, e1)[1] - case.velocity.eval(0.0, -e1)[1])
                   - (case.velocity.eval(0.0, e2)[0] - case.velocity.eval(0.0, -e2)[0])) / (2 * h)
        assert fd_curl == pytest.approx(1.0, abs=1e-6)

    def test_velocity_vanishes_on_axis(self):
        case = get_case("lamb_oseen")
        axis = np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        assert np.all(case.velocity.eval(0.5, axis) == 0.0)

    def test_fd_residual_small(self):
        case = get_case("lamb_oseen")
        assert np.abs(fd_residual_oracle(case, 0.3, np.array([1.0, 0.0, 0.0]),
                                         step=1e-3)).max() <= 1e-5
        assert np.abs(fd_residual_oracle(case, 0.5, np.array([1.0, 0.0, 0.0]),
                                         step=1e-3)).max() <= 1e-5

    def test_rejects_nonpositive_time_shift(self):
        with pytest.raises(ValueError):
            make_lamb_oseen(t0=0.0)
        with pytest.raises(ValueError):
            make_lamb_oseen(t0=-1.0)

    def test_pressure_profile_against_closed_form(self):
        # Independent oracle for the quadrature + spline: the cumulative
        # profile integral has an exact exponential-integral expression.
        eta = np.linspace(1e-3, 39.0, 200)
        closed = 2 * np.log(2) - (1 - 2 * special.expn(2, eta)
                                  + special.expn(2, 2 * eta)) / eta
        assert np.abs(_G(eta) - closed).max() <= 1e-8

    def test_pressure_profile_is_the_spline_bit_for_bit(self):
        # _G evaluates the spline from the committed table with numpy alone;
        # it must reproduce scipy's evaluation exactly, at every knot, on both
        # float neighbours of every knot and at the domain ends
        spline = pressure_spline()
        knots = spline.x
        eta = np.concatenate([knots, np.nextafter(knots, -np.inf),
                              np.nextafter(knots, np.inf), [0.0, 40.0],
                              np.linspace(0.0, 40.0, 10_001)])
        eta = eta[(eta >= 0.0) & (eta <= 40.0)]
        assert np.array_equal(_G(eta).view(np.int64), spline(eta).view(np.int64))
        assert _G(0.0) == spline(0.0) and _G(40.0) == spline(40.0)
        # a 2-D input with every point inside takes the unmasked path
        plane = eta[:16_000].reshape(80, 200)
        assert _G(plane).shape == plane.shape
        assert np.array_equal(_G(plane).view(np.int64), spline(plane).view(np.int64))
        # past the spline domain the exponential-integral tail takes over
        past = np.array([np.nextafter(40.0, np.inf), 41.0, 1e3, 1e300, np.inf])
        with np.errstate(all="ignore"):
            tail = 2 * np.log(2) - (1 - 2 * special.expn(2, past)
                                    + special.expn(2, 2 * past)) / past
        assert np.array_equal(_G(past), tail)

    def test_committed_table_is_the_quadrature_spline(self):
        assert np.array_equal(_G_TABLE.view(np.int64),
                              pressure_spline().c.view(np.int64))
        assert _G_TABLE.dtype == np.float64 and _G_TABLE.shape == (4, 2000)
        assert not _G_TABLE.flags.writeable

    def test_table_loader_rejects_a_changed_copy(self, tmp_path):
        raw = TABLE.read_bytes()
        assert np.array_equal(_load_table(TABLE), _G_TABLE)
        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 0x01        # one bit of one coefficient
        (tmp_path / "flipped.npy").write_bytes(bytes(flipped))
        np.save(tmp_path / "short.npy", np.asarray(_G_TABLE)[:, :1999])
        for name in ("flipped.npy", "short.npy"):
            path = tmp_path / name
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            with pytest.raises(ValueError) as err:
                _load_table(path)
            message = str(err.value)
            assert str(path) in message and digest in message
            assert hashlib.sha256(raw).hexdigest() in message

    def test_pressure_gradient_matches_fd_of_value(self):
        case = get_case("lamb_oseen")
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.5, 2.5, size=(40, 3))
        h = 1e-5
        for j in range(2):
            e = np.zeros(3)
            e[j] = h
            fd = (case.pressure.eval(0.4, pts + e)
                  - case.pressure.eval(0.4, pts - e)) / (2 * h)
            assert np.abs(fd - case.pressure.gradient(0.4, pts)[:, j]).max() <= 1e-6

    def test_pressure_increases_from_axis_minimum(self):
        case = get_case("lamb_oseen")
        r = np.linspace(0.0, 6.0, 200)
        pts = np.stack([r, np.zeros_like(r), np.zeros_like(r)], axis=-1)
        p = case.pressure.eval(0.2, pts)
        assert p[0] == pytest.approx(0.0, abs=1e-14)
        assert np.all(np.diff(p) >= -1e-15)


def test_rotated_variant_varies_along_e3():
    case = get_case("taylor_green_rotated")
    x = np.array([0.3, 0.4, 0.9])
    shifted = x + np.array([0.0, 0.0, 0.5])
    assert abs(case.pressure.eval(0.0, shifted) - case.pressure.eval(0.0, x)) > 0.01
    base = get_case("taylor_green")
    # conjugation preserves speeds
    perm = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    speed = np.linalg.norm(case.velocity.eval(0.2, x))
    assert speed == pytest.approx(
        np.linalg.norm(base.velocity.eval(0.2, x @ perm)), abs=1e-14)


@pytest.mark.parametrize("rot", [2.0 * np.eye(3), np.ones((3, 3)), np.eye(2)],
                         ids=["scaled", "singular", "2x2"])
def test_rotated_case_refuses_a_non_orthogonal_matrix(rot):
    with pytest.raises(ValueError, match="orthogonal"):
        rotated_case(get_case("taylor_green"), rot, "skewed")


@pytest.mark.parametrize("name", ["taylor_green", "lamb_oseen"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rotated_case_keeps_exact_solutions_exact(name, seed):
    # an orthogonal matrix: Q of the QR factorisation of a Gaussian draw
    rot, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    diag = probe_residuals(rotated_case(get_case(name), rot, f"{name}_conjugated"))
    assert diag["max_abs_residual"] <= 1e-5
    assert diag["max_abs_divergence"] <= 1e-10


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
def test_lamb_oseen_turned_about_e3_keeps_both_symmetries(theta):
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    case = rotated_case(get_case("lamb_oseen"), rot, "lamb_oseen_turned")
    assert symmetry_check(case, TRANSLATION_E3).within_gate
    assert symmetry_check(case, ROTATION_E3).within_gate


def test_importing_the_cli_loads_no_scipy():
    # the runtime package needs numpy only; scipy is a test dependency
    src = str(Path(lagrangeflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, lagrangeflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
