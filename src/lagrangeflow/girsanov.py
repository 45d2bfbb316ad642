"""Path-space log-densities, the pressure-tilted normalizer, and entropy.

The density of the drifted law against Wiener measure is
exp(-int u(1-t, W) dW - 1/2 int |u(1-t, W)|^2 dt); its discretization uses
the left endpoint of every interval, matching the Euler-Maruyama scheme and
keeping every integrand adapted.  The pressure-tilted reference measure has
density exp(int p(1-s, W_s) ds) / Z_p against Wiener measure.

Sign convention: the trivial case u = 0, p = c pins the identity between
action and entropy to  S = H - ln Z_p  (the action picks up -c, the entropy
of a measure against itself is 0, and ln Z_p = c).  Both residual
conventions are reported so the choice stays visible.

Every functional takes (case, n_paths, steps, seed) and walks the paths of
``simulate_pu`` or ``simulate_wiener`` at those arguments piece by piece,
keeping no ensemble; on drifted paths u is the drift the walk used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import WIENER_SEED_OFFSET, TimeGrid, alloc, walk_pieces
from .fields import Array, FlowCase


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo point estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int

    def to_dict(self):
        return {"value": self.value, "std_error": self.std_error,
                "n": self.n_samples}


def mean_with_error(samples: Array) -> EstimateWithError:
    """Sample mean with std error = sample standard deviation / sqrt(n).

    Reductions run over the fully assembled per-path array in a fixed
    pairwise order, so results never depend on the worker count.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    sd = samples.std(ddof=1) if n > 1 else 0.0
    return EstimateWithError(float(samples.mean()), float(sd / np.sqrt(n)), n)


def _path_sums(walked, n_paths: int, steps: int, seed: int, rows: int, add) -> Array:
    """Per-path (rows, N) sums over k < M, from zero in increasing k, on the
    paths of ``walk_pieces(walked, ...)``: add(1 - t_k, X_k, X_{k+1} - X_k, v_k,
    acc) adds step k to a piece's rows acc; v_k is the walk's drift, or None."""
    times = TimeGrid(steps).times
    sums = alloc((rows, n_paths))

    def visit(lo, x, v):
        acc = sums[:, lo:lo + x.shape[1]]
        for k in range(steps):
            v_k = None if v is None else v[:, k]
            add(1.0 - times[k], x[k], x[k + 1] - x[k], v_k, acc)

    walk_pieces(walked, n_paths, steps, seed, visit)
    return sums


def log_density_pu(case: FlowCase, n_paths: int, steps: int, seed: int) -> Array:
    """Per-path ln dP_u/dmu, (N,), on the paths of ``simulate_wiener(n_paths,
    steps, seed)``."""
    u, dt = case.velocity.eval, 1.0 / steps

    def add(t, x, dx, _, acc):
        u_k = u(t, x)
        acc[0] += (u_k * dx).sum(axis=-1)
        acc[1] += (u_k**2).sum(axis=-1) * dt

    ito, energy = _path_sums(None, n_paths, steps, seed, 2, add)
    return -ito - 0.5 * energy


def pressure_integral(case: FlowCase, n_paths: int, steps: int, seed: int) -> Array:
    """Per-path sum of p(1 - t_k, X_k) dt over k < M on the paths of
    ``simulate_wiener(n_paths, steps, seed)``."""
    p = case.pressure.eval
    return _path_sums(None, n_paths, steps, seed, 1, lambda t, x, dx, _, acc:
                      np.add(acc[0], p(t, x), out=acc[0]))[0] * (1.0 / steps)


def drifted_path_functionals(case: FlowCase, n_paths: int, steps: int,
                             seed: int) -> tuple:
    """Per-path (ln dP_u/dmu, int p dt, action) on the paths of
    ``simulate_pu(case, n_paths, steps, seed)``, from one walk whose drift is
    -u and one p call per step: the left-point sums of ``log_density_pu``,
    ``pressure_integral`` and (|u|^2 / 2 - p) dt on the stored ensemble."""
    p, dt = case.pressure.eval, 1.0 / steps

    def add(t, x, dx, v, acc):
        p_k, sq = p(t, x), (v**2).sum(axis=-1)
        acc[0] -= (v * dx).sum(axis=-1)     # u = -v, and a - b == a + (-b)
        acc[1] += sq * dt
        acc[2] += p_k
        acc[3] += 0.5 * sq - p_k

    ito, energy, pressure, action = _path_sums(case, n_paths, steps, seed, 4, add)
    return -ito - 0.5 * energy, pressure * dt, action * dt


def estimate_Zp(case: FlowCase, n_paths: int, steps: int, seed: int) -> EstimateWithError:
    """Z_p = E_mu[exp(int p(1-s, W_s) ds)] on ``simulate_wiener(n_paths,
    steps, seed)``."""
    return mean_with_error(np.exp(pressure_integral(case, n_paths, steps, seed)))


def relative_entropy(case: FlowCase, n_paths: int, steps: int,
                     seed: int) -> EstimateWithError:
    """H(P_u | mu_p) = E_Pu[ln dP_u/dmu] - E_Pu[int p dt] + ln Z_p, the "H"
    entry of ``action_entropy_identity``: the first two terms as one per-path
    quantity on the same drifted paths, the ln Z_p error by the delta method."""
    return action_entropy_identity(case, n_paths, steps, seed)["H"]


def action_entropy_identity(case: FlowCase, n_paths: int, steps: int,
                            seed: int) -> dict:
    """S, H, ln Z_p and both residuals S - (H -+ ln Z_p): the drifted terms on
    ``simulate_pu(case, n_paths, steps, seed)``, Z_p on ``simulate_wiener(
    n_paths, steps, seed + WIENER_SEED_OFFSET)``.

    Common random numbers: the action and the entropy's drifted-measure terms
    are evaluated on the same paths, so ln Z_p cancels exactly inside
    residual_minus and the residual's standard error reflects only the
    genuinely fluctuating part.
    """
    log_density, pressure, act = drifted_path_functionals(case, n_paths, steps, seed)
    dens_minus_p = log_density - pressure
    z = estimate_Zp(case, n_paths, steps, seed + WIENER_SEED_OFFSET)
    ln_z = float(np.log(z.value))
    se_ln_z = z.std_error / z.value

    def plus_ln_z(est, factor):
        """est + factor * ln Z_p, whose error enters by the delta method."""
        return EstimateWithError(est.value + factor * ln_z,
                                 float(np.hypot(est.std_error, factor * se_ln_z)),
                                 est.n_samples)

    res_minus = mean_with_error(act - dens_minus_p)     # ln Z_p cancels
    budget = 3.0 * res_minus.std_error + 2.0 / steps
    return {
        "S": mean_with_error(act),
        "H": plus_ln_z(mean_with_error(dens_minus_p), 1.0),
        "ln_Zp": EstimateWithError(ln_z, float(se_ln_z), z.n_samples),
        "residual_minus": res_minus,
        "residual_plus": plus_ln_z(res_minus, -2.0),
        "identity_budget": budget,
        "identity_holds": bool(abs(res_minus.value) <= budget),
    }
