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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (PathEnsemble, WIENER_TAG, left_point_sum, pu_tag,
                     require_same_grid, require_tag)
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
    pairwise order, so results never depend on the worker count used to
    build the ensemble.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    sd = samples.std(ddof=1) if n > 1 else 0.0
    return EstimateWithError(float(samples.mean()), float(sd / np.sqrt(n)), n)


def log_density_pu(case: FlowCase, ensemble: PathEnsemble) -> Array:
    """Per-path log of dP_u/dmu evaluated as a path functional.

    Works on any ensemble: the formula only reads positions.  Returns an
    array of shape (N,).
    """
    u = case.velocity.eval
    dt = ensemble.grid.dt

    def term(t, x, dx):
        u_k = u(t, x)
        return np.stack([(u_k * dx).sum(axis=-1), (u_k**2).sum(axis=-1) * dt])

    ito, energy = left_point_sum(term, ensemble)
    return -ito - 0.5 * energy


def pressure_integral(case: FlowCase, ensemble: PathEnsemble) -> Array:
    """Per-path left-point sum of p(1 - t_k, X_k) dt over k = 0..M-1."""
    p = case.pressure.eval
    return left_point_sum(lambda t, x, dx: p(t, x), ensemble) * ensemble.grid.dt


def drifted_path_functionals(case: FlowCase, ensemble: PathEnsemble) -> tuple:
    """Per-path (ln dP_u/dmu, int p dt, action) of a drifted ensemble from one
    walk that evaluates u and p once per step.  Each row is summed from zero
    in increasing k, so the three equal ``log_density_pu``,
    ``pressure_integral`` and the sum of (|u|^2 / 2 - p) dt bit for bit."""
    require_tag(ensemble, pu_tag(case))
    u, p = case.velocity.eval, case.pressure.eval
    dt = ensemble.grid.dt

    def term(t, x, dx):
        u_k, p_k = u(t, x), p(t, x)
        sq = (u_k**2).sum(axis=-1)
        return np.stack([(u_k * dx).sum(axis=-1), sq * dt, p_k, 0.5 * sq - p_k])

    ito, energy, pressure, action = left_point_sum(term, ensemble)
    return -ito - 0.5 * energy, pressure * dt, action * dt


def estimate_Zp(case: FlowCase, wiener_ensemble: PathEnsemble) -> EstimateWithError:
    """Normalization Z_p = E_mu[exp(int p(1-s, W_s) ds)]."""
    require_tag(wiener_ensemble, WIENER_TAG)
    return mean_with_error(np.exp(pressure_integral(case, wiener_ensemble)))


def relative_entropy(case: FlowCase, pu_ensemble: PathEnsemble,
                     wiener_ensemble: PathEnsemble) -> EstimateWithError:
    """H(P_u | mu_p) = E_Pu[ln dP_u/dmu] - E_Pu[int p dt] + ln Z_p.

    The first two expectations come from the same drifted ensemble, so their
    covariance is accounted for by estimating them as one per-path quantity;
    the ln Z_p error enters by the delta method.  This is the "H" entry of
    ``action_entropy_identity``, which assembles it.
    """
    return action_entropy_identity(case, pu_ensemble, wiener_ensemble)["H"]


def action_entropy_identity(case: FlowCase, pu_ensemble: PathEnsemble,
                            wiener_ensemble: PathEnsemble) -> dict:
    """Evaluate S, H, ln Z_p and both residuals S - (H -+ ln Z_p).

    Common random numbers: the action and the entropy's drifted-measure terms
    are evaluated on the same paths, so ln Z_p cancels exactly inside
    residual_minus and the residual's standard error reflects only the
    genuinely fluctuating part.
    """
    require_tag(pu_ensemble, pu_tag(case))
    require_same_grid(pu_ensemble, wiener_ensemble)
    log_density, pressure, act = drifted_path_functionals(case, pu_ensemble)
    dens_minus_p = log_density - pressure
    z = estimate_Zp(case, wiener_ensemble)
    ln_z = float(np.log(z.value))
    se_ln_z = z.std_error / z.value

    def plus_ln_z(est, factor):
        """est + factor * ln Z_p, whose error enters by the delta method."""
        return EstimateWithError(est.value + factor * ln_z,
                                 float(np.hypot(est.std_error, factor * se_ln_z)),
                                 est.n_samples)

    res_minus = mean_with_error(act - dens_minus_p)     # ln Z_p cancels
    budget = 3.0 * res_minus.std_error + 2.0 / pu_ensemble.grid.steps
    return {
        "S": mean_with_error(act),
        "H": plus_ln_z(mean_with_error(dens_minus_p), 1.0),
        "ln_Zp": EstimateWithError(ln_z, float(se_ln_z), z.n_samples),
        "residual_minus": res_minus,
        "residual_plus": plus_ln_z(res_minus, -2.0),
        "identity_budget": budget,
        "identity_holds": bool(abs(res_minus.value) <= budget),
    }
