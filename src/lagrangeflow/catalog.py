"""Catalog of reference flows and the momentum-balance residual oracles.

Every case is a globally smooth, bounded field on [0, 1] x R^3 with zero
divergence.  Viscosity is fixed at one half throughout the suite, so the
balance checked here is

    R = du/dt + (u . grad) u + grad p - lap(u) / 2,

and membership in the solution set means R vanishes identically.  The
catalog carries two exact solutions (a decaying Taylor-Green cell and a
regularized Lamb-Oseen vortex), a deliberately broken control (Taylor-Green
with its decay factor pinned to one), a trivial baseline, and an axis-swapped
Taylor-Green variant whose variation lies along e3.

``ns_residual`` uses the analytic derivatives; ``fd_residual_oracle``
recomputes the same residual from point evaluations only, so the two sides
are independent checks of each other.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

from .fields import Array, FlowCase, PressureField, VelocityField, rotated_case


class UnknownCaseError(KeyError):
    """Raised when a case name is not registered in the catalog."""


# ---------------------------------------------------------------------------
# residual oracles

def ns_residual(case: FlowCase, t: float, x: Array):
    """Momentum residual and divergence from the analytic derivatives.

    Returns (R, div) with R of shape (..., 3) and div of shape (...,).
    """
    x = np.asarray(x, dtype=float)
    u = case.velocity.eval(t, x)
    J = case.velocity.jacobian(t, x)
    conv = np.einsum("...ij,...j->...i", J, u)
    resid = (case.velocity.time_deriv(t, x) + conv
             + case.pressure.gradient(t, x) - 0.5 * case.velocity.laplacian(t, x))
    div = J[..., 0, 0] + J[..., 1, 1] + J[..., 2, 2]
    return resid, div


def fd_residual_oracle(case: FlowCase, t: float, x: Array, step: float = 1e-3) -> Array:
    """Same residual, rebuilt from velocity/pressure point values alone.

    Central second-order differences in space; in time the stencil falls back
    to a one-sided second-order formula when t +- step leaves [0, 1].
    Agreement with ``ns_residual`` is O(step^2).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    u = case.velocity.eval
    p = case.pressure.eval

    if t - step < 0.0:
        dudt = (-3 * u(t, x) + 4 * u(t + step, x) - u(t + 2 * step, x)) / (2 * step)
    elif t + step > 1.0:
        dudt = (3 * u(t, x) - 4 * u(t - step, x) + u(t - 2 * step, x)) / (2 * step)
    else:
        dudt = (u(t + step, x) - u(t - step, x)) / (2 * step)

    u0 = u(t, x)
    conv = np.zeros_like(u0)
    lap = np.zeros_like(u0)
    grad_p = np.zeros_like(u0)
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        up, um = u(t, x + e), u(t, x - e)
        conv += u0[..., j, None] * (up - um) / (2 * step)
        lap += (up - 2 * u0 + um) / step**2
        grad_p[..., j] = (p(t, x + e) - p(t, x - e)) / (2 * step)
    return dudt + conv + grad_p - 0.5 * lap


def probe_grid(n_time: int = 5, n_space: int = 5):
    """Standard verification grid: times in [0,1], points in [-pi, pi]^3."""
    times = np.linspace(0.0, 1.0, n_time)
    axis = np.linspace(-np.pi, np.pi, n_space)
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    points = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=-1)
    return times, points


def probe_residuals(case: FlowCase, n_time: int = 5, n_space: int = 5, step: float = 1e-3):
    """Sup-norm diagnostics over the probe grid.

    Returns a dict with the analytic residual, divergence, analytic-vs-FD
    discrepancy, and the pressure minimum, each maximized (or minimized) over
    the full grid.
    """
    times, points = probe_grid(n_time, n_space)
    max_resid = 0.0
    max_div = 0.0
    max_fd_gap = 0.0
    min_pressure = np.inf
    for t in times:
        resid, div = ns_residual(case, float(t), points)
        fd = fd_residual_oracle(case, float(t), points, step)
        # np.maximum and np.minimum keep a nan, where max and min drop it
        max_resid = float(np.maximum(max_resid, np.abs(resid).max()))
        max_div = float(np.maximum(max_div, np.abs(div).max()))
        max_fd_gap = float(np.maximum(max_fd_gap, np.abs(resid - fd).max()))
        min_pressure = float(np.minimum(min_pressure,
                                        case.pressure.eval(float(t), points).min()))
    return {
        "max_abs_residual": max_resid,
        "max_abs_divergence": max_div,
        "max_fd_discrepancy": max_fd_gap,
        "min_pressure": min_pressure,
    }


# ---------------------------------------------------------------------------
# Taylor-Green

def _tg_fields(frozen: bool):
    def decay(t):
        return 1.0 if frozen else np.exp(-t)

    def u_eval(t, x):
        a = decay(t)
        return np.stack(
            [a * np.cos(x[..., 0]) * np.sin(x[..., 1]),
             -a * np.sin(x[..., 0]) * np.cos(x[..., 1]),
             np.zeros_like(x[..., 0])],
            axis=-1,
        )

    def u_dt(t, x):
        if frozen:
            return np.zeros_like(x)
        return -u_eval(t, x)

    def u_jac(t, x):
        a = decay(t)
        cx, sx = np.cos(x[..., 0]), np.sin(x[..., 0])
        cy, sy = np.cos(x[..., 1]), np.sin(x[..., 1])
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., 0, 0] = -a * sx * sy
        J[..., 0, 1] = a * cx * cy
        J[..., 1, 0] = -a * cx * cy
        J[..., 1, 1] = a * sx * sy
        return J

    def u_lap(t, x):
        return -2.0 * u_eval(t, x)

    # Pressure balancing the convective term: p = -(cos 2x + cos 2y)/4 * a^2,
    # shifted by +1/2 so that inf p = 0.  The shift leaves grad p untouched.
    def p_eval(t, x):
        a2 = 1.0 if frozen else np.exp(-2 * t)
        return -a2 * (np.cos(2 * x[..., 0]) + np.cos(2 * x[..., 1])) / 4.0 + 0.5

    def p_grad(t, x):
        a2 = 1.0 if frozen else np.exp(-2 * t)
        return np.stack(
            [a2 * np.sin(2 * x[..., 0]) / 2.0,
             a2 * np.sin(2 * x[..., 1]) / 2.0,
             np.zeros_like(x[..., 0])],
            axis=-1,
        )

    velocity = VelocityField(u_eval, u_dt, u_jac, u_lap, bound=1.0)
    pressure = PressureField(p_eval, p_grad, bound=1.0)
    return velocity, pressure


def make_taylor_green() -> FlowCase:
    """Decaying Taylor-Green cell, z-independent, an exact solution."""
    velocity, pressure = _tg_fields(frozen=False)
    return FlowCase("taylor_green", velocity, pressure, is_exact_solution=True,
                    symmetries=frozenset({"translation_e3"}))


def make_frozen_taylor_green() -> FlowCase:
    """Taylor-Green with the decay factor pinned to 1: the negative control.

    Freezing the field leaves -lap(u)/2 = u unbalanced, so the residual
    equals u pointwise and reaches magnitude 1.
    """
    velocity, pressure = _tg_fields(frozen=True)
    return FlowCase("frozen_taylor_green", velocity, pressure, is_exact_solution=False,
                    symmetries=frozenset({"translation_e3"}))


def make_taylor_green_rotated() -> FlowCase:
    """Taylor-Green conjugated by the cyclic axis swap e1->e2->e3->e1.

    The rotated field varies along e3, so it is still an exact solution but
    carries no symmetry along that axis; the Noether symmetry gate must
    refuse it.
    """
    perm = np.array([[0.0, 0.0, 1.0],
                     [1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0]])
    return rotated_case(make_taylor_green(), perm, "taylor_green_rotated")


# ---------------------------------------------------------------------------
# Lamb-Oseen

# Self-similar profiles in xi = r^2 / (2 (t + t0)).  h = (1 - e^-xi)/xi, with
# series branches keeping the axis xi -> 0 exact to double precision.

def _h(xi):
    xi = np.asarray(xi, dtype=float)
    small = xi < 1e-5
    safe = np.where(small, 1.0, xi)
    out = np.where(small, 1.0 - xi / 2.0 + xi * xi / 6.0,
                   -np.expm1(-safe) / safe)
    return out


def _h_prime(xi):
    xi = np.asarray(xi, dtype=float)
    small = xi < 1e-4
    safe = np.where(small, 1.0, xi)
    e = np.exp(-safe)
    out = np.where(small, -0.5 + xi / 3.0 - xi * xi / 8.0,
                   (safe * e + np.expm1(-safe)) / safe**2)
    return out


def _h_second(xi):
    xi = np.asarray(xi, dtype=float)
    small = xi < 1e-3
    safe = np.where(small, 1.0, xi)
    e = np.exp(-safe)
    out = np.where(small, 1.0 / 3.0 - xi / 4.0 + xi * xi / 10.0,
                   (-2.0 * np.expm1(-safe) - 2.0 * safe * e - safe**2 * e) / safe**3)
    return out


# Radial-quadrature pressure profile: p = gamma^2 / (16 pi^2 (t + t0)) * G(xi)
# with G(eta) = int_0^eta h(s)^2 ds, case-independent.  G is a cubic spline
# through quadrature values at 2001 even knots on [0, 40]; its coefficients
# ship as a checked table, rebuilt bit for bit in tests/test_catalog.py.  It is
# evaluated with numpy alone, which releases the interpreter lock.  Past the
# domain int_eta^inf h^2 = [1 - 2 E2(eta) + E2(2 eta)] / eta, and E2(eta) <=
# E2(40) < 1e-18 rounds the bracket to exactly 1.
_G_DOMAIN = 40.0
_G_INF = 2.0 * np.log(2.0)
_G_KNOTS = np.linspace(0.0, _G_DOMAIN, 2001)
_G_TABLE_SHA256 = "83da4b07cd37c52c4da705052a045ba77aa6fd54dd058bd590becf2186ba9f63"


def _load_table(path: Path = Path(__file__).with_name("pressure_profile.npy")):
    """The (4, 2000) float64 spline coefficients at ``path``, read-only; a
    ValueError names the file and both digests unless its sha256 matches."""
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    ok = digest == _G_TABLE_SHA256
    table = np.load(io.BytesIO(raw), allow_pickle=False) if ok else None
    if not ok or table.dtype != np.float64 or table.shape != (4, 2000):
        raise ValueError(f"corrupt pressure profile table {path}: sha256 {digest}, "
                         f"expected {_G_TABLE_SHA256}")
    table.flags.writeable = False
    return table


_G_TABLE = _load_table()


def _spline_eval(eta):
    """The pressure spline at eta in [0, 40], bit for bit what scipy computes.

    Same interval (x[i] <= eta < x[i+1], the last knot in the last piece)
    and the same power-form sum c3 + c2 s + c1 s^2 + c0 s^3, added in that
    order with s^3 = (s s) s.  The knots are evenly spaced, so eta / spacing
    lands on the interval or a neighbour of it, and one comparison with each
    bounding knot settles which; that is several times cheaper than a binary
    search.
    """
    x, c = _G_KNOTS, _G_TABLE
    last = len(x) - 2
    i = np.clip((eta * (last + 1) / x[-1]).astype(np.intp), 0, last)
    i -= eta < x[i]
    i += eta >= x[i + 1]
    np.clip(i, 0, last, out=i)
    s = eta - x[i]
    s2 = s * s
    return c[3, i] + c[2, i] * s + c[1, i] * s2 + c[0, i] * (s2 * s)


def _G(eta):
    eta = np.asarray(eta, dtype=float)
    scalar = eta.ndim == 0
    eta = np.atleast_1d(eta)
    inside = eta <= _G_DOMAIN
    if inside.all():        # the usual case: no gather or scatter through the mask
        out = _spline_eval(eta)
    else:
        out = np.empty_like(eta)
        out[inside] = _spline_eval(eta[inside])
        out[~inside] = _G_INF - 1.0 / eta[~inside]
    return out[0] if scalar else out


def make_lamb_oseen(circulation: float = 2.0 * np.pi, t0: float = 1.0) -> FlowCase:
    """Regularized Lamb-Oseen vortex about e3, an exact axisymmetric solution.

    The time origin is shifted by t0 > 0 to keep the vorticity core smooth on
    [0, 1].  With viscosity 1/2 the azimuthal speed is
    u_theta = circulation/(2 pi r) (1 - exp(-r^2 / (2 (t + t0)))).  The radial
    pressure solves dp/dr = u_theta^2 / r with inf p = 0; its gradient comes
    from that exact relation, never from spline differentiation.
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    gamma = float(circulation)
    c0 = gamma / (4.0 * np.pi)           # g(r, t) = c0 h(xi) / tau

    def _xi_tau(t, x):
        tau = t + t0
        xi = (x[..., 0] ** 2 + x[..., 1] ** 2) / (2.0 * tau)
        return xi, tau

    def u_eval(t, x):
        xi, tau = _xi_tau(t, x)
        g = c0 * _h(xi) / tau
        return np.stack([-x[..., 1] * g, x[..., 0] * g, np.zeros_like(g)], axis=-1)

    def u_dt(t, x):
        xi, tau = _xi_tau(t, x)
        dg = -c0 * np.exp(-xi) / tau**2   # d/dt of g, using h + xi h' = e^-xi
        return np.stack([-x[..., 1] * dg, x[..., 0] * dg, np.zeros_like(dg)], axis=-1)

    def u_jac(t, x):
        xi, tau = _xi_tau(t, x)
        g = c0 * _h(xi) / tau
        gp_r = c0 * _h_prime(xi) / tau**2      # g'(r)/r
        X, Y = x[..., 0], x[..., 1]
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., 0, 0] = -X * Y * gp_r
        J[..., 0, 1] = -g - Y * Y * gp_r
        J[..., 1, 0] = g + X * X * gp_r
        J[..., 1, 1] = X * Y * gp_r
        return J

    def u_lap(t, x):
        xi, tau = _xi_tau(t, x)
        coef = c0 * (2.0 * xi * _h_second(xi) + 4.0 * _h_prime(xi)) / tau**2
        return np.stack([-x[..., 1] * coef, x[..., 0] * coef, np.zeros_like(coef)],
                        axis=-1)

    def p_eval(t, x):
        xi, tau = _xi_tau(t, x)
        return gamma**2 / (16.0 * np.pi**2 * tau) * _G(xi)

    def p_grad(t, x):
        xi, tau = _xi_tau(t, x)
        g = c0 * _h(xi) / tau
        g2 = g * g
        return np.stack([g2 * x[..., 0], g2 * x[..., 1], np.zeros_like(g2)], axis=-1)

    # Numeric sup bounds over the core region at the earliest (sharpest) time.
    rr = np.linspace(0.0, 25.0, 20001)
    pts = np.stack([rr, np.zeros_like(rr), np.zeros_like(rr)], axis=-1)
    speeds = np.linalg.norm(u_eval(0.0, pts), axis=-1)
    jac_entries = np.abs(u_jac(0.0, pts)).max()
    dt_entries = np.abs(u_dt(0.0, pts)).max()
    u_bound = 1.001 * float(max(speeds.max(), jac_entries, dt_entries))
    p_bound = gamma**2 * _G_INF / (16.0 * np.pi**2 * t0)

    velocity = VelocityField(u_eval, u_dt, u_jac, u_lap, bound=u_bound)
    pressure = PressureField(p_eval, p_grad, bound=p_bound)
    return FlowCase("lamb_oseen", velocity, pressure, is_exact_solution=True,
                    symmetries=frozenset({"rotation_e3", "translation_e3"}))


def make_zero_flow(pressure_const: float = 0.5) -> FlowCase:
    """u = 0 with constant pressure: the trivial baseline."""
    if pressure_const < 0:
        raise ValueError("pressure_const must be nonnegative")
    c = float(pressure_const)

    def zeros3(t, x):
        return np.zeros_like(x)

    def zeros33(t, x):
        return np.zeros(x.shape[:-1] + (3, 3))

    def p_eval(t, x):
        return np.full(x.shape[:-1], c)

    velocity = VelocityField(zeros3, zeros3, zeros33, zeros3, bound=1e-12)
    pressure = PressureField(p_eval, zeros3, bound=c + 1e-12)
    return FlowCase("zero_flow", velocity, pressure, is_exact_solution=True,
                    symmetries=frozenset({"translation_e3", "rotation_e3"}))


_FACTORIES = {
    "taylor_green": make_taylor_green,
    "lamb_oseen": make_lamb_oseen,
    "frozen_taylor_green": make_frozen_taylor_green,
    "zero_flow": make_zero_flow,
    "taylor_green_rotated": make_taylor_green_rotated,
}

_CACHE: dict[str, FlowCase] = {}


def case_names():
    return sorted(_FACTORIES)


def get_case(name: str) -> FlowCase:
    """Fetch a registered case by name; instances are immutable and shared."""
    if name not in _FACTORIES:
        raise UnknownCaseError(name)
    if name not in _CACHE:
        _CACHE[name] = _FACTORIES[name]()
    return _CACHE[name]
