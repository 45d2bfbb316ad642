"""Stochastic action, its directional derivative, and the criticality check.

The action of a drifted ensemble is the expected left-point sum of
|v|^2/2 - p(1 - t, x) along its paths.  Shifting every path by eps * h (an
adapted perturbation vanishing at both endpoints) shifts the drift process by
eps * hdot and the positions by eps * h, which expands to the first-order
derivative

    dS[h] = E[ sum_k ( <v_k, hdot_k> - <grad p(1 - t_k, X_k), h_k> ) dt ].

A solution field makes this vanish for every admissible h; the finite
dictionary below probes deterministic directions and genuinely random
(gated) ones, and the finite-difference pushforward recomputes the same
derivative from the action alone as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from .engine import (PathEnsemble, along_paths, drift_process, left_point_sum,
                     pu_tag, require_tag, run_chunks)
from .fields import Array, FlowCase
from .girsanov import EstimateWithError, mean_with_error

_EPS_RANGE = (1e-4, 1e-1)


@dataclass(frozen=True)
class PerturbationField:
    """Adapted perturbation with h(0) = h(1) = 0 exactly.

    kind is one of {"deterministic_sine", "deterministic_bump",
    "adapted_gated"}.  Deterministic kinds carry a direction vector; the
    gated kind switches on at the activation time and points along a bounded
    function of the path position at that time, so it is random but adapted.
    ``energy_bound`` bounds sum |hdot|^2 dt.
    """

    kind: str
    label: str
    direction: Optional[Array] = None
    activation: Optional[float] = None
    gate: Optional[Callable[[Array], Array]] = None
    energy_bound: float = 0.0

    def profile(self, ensemble: PathEnsemble):
        """(base, dbase, weight) with h_k = base[k] * weight, hdot_k = dbase[k] * weight.

        base and dbase have shape (M+1,); weight is (1, 3) for deterministic
        kinds and the per-path gate value (N, 3) for the gated kind.
        """
        times = ensemble.grid.times
        if self.kind == "deterministic_sine":
            base = np.sin(np.pi * times)
            base[0] = base[-1] = 0.0
            return base, np.pi * np.cos(np.pi * times), self.direction[None, :]
        if self.kind == "deterministic_bump":
            return times * (1.0 - times), 1.0 - 2.0 * times, self.direction[None, :]
        if self.kind == "adapted_gated":
            a = self.activation
            k_a = int(np.floor(a * ensemble.grid.steps))
            on = times >= a
            phase = np.pi * (times - a) / (1.0 - a)
            base = np.where(on, np.sin(phase), 0.0)
            base[-1] = 0.0
            dbase = np.where(on, np.pi / (1.0 - a) * np.cos(phase), 0.0)
            return base, dbase, self.gate(ensemble.positions[:, k_a, :])
        raise ValueError(f"unknown perturbation kind {self.kind!r}")

    def realize(self, ensemble: PathEnsemble):
        """Evaluate (h, hdot) on the ensemble grid.

        Returns arrays broadcastable to (N, M+1, 3); deterministic kinds
        yield a singleton path axis.
        """
        base, dbase, weight = self.profile(ensemble)
        weight = weight[:, None, :]
        return base[None, :, None] * weight, dbase[None, :, None] * weight


# Energy bounds are pointwise sup bounds times 1.5, which covers the
# left-point discretized energy for every grid with M >= 2.

def sine_perturbation(direction: Array, label: str = "") -> PerturbationField:
    c = np.asarray(direction, dtype=float)
    return PerturbationField("deterministic_sine", label or f"sine{tuple(c)}",
                             direction=c,
                             energy_bound=1.5 * np.pi**2 * float(c @ c))


def bump_perturbation(direction: Array, label: str = "") -> PerturbationField:
    c = np.asarray(direction, dtype=float)
    return PerturbationField("deterministic_bump", label or f"bump{tuple(c)}",
                             direction=c, energy_bound=1.5 * float(c @ c))


def gated_tanh_perturbation(activation: float, label: str = "") -> PerturbationField:
    if not 0.0 < activation < 1.0:
        raise ValueError("activation time must lie in (0, 1)")
    return PerturbationField(
        "adapted_gated", label or f"gated_tanh(a={activation})",
        activation=activation, gate=np.tanh,
        energy_bound=4.5 * (np.pi / (1.0 - activation)) ** 2)


def default_dictionary() -> list:
    """Nine probes: sine and bump along each axis, plus three tanh gates."""
    basis = np.eye(3)
    entries = [sine_perturbation(basis[i], f"sine_e{i + 1}") for i in range(3)]
    entries += [bump_perturbation(basis[i], f"bump_e{i + 1}") for i in range(3)]
    entries += [gated_tanh_perturbation(a) for a in (0.25, 0.5, 0.75)]
    return entries


def deterministic_dictionary() -> list:
    basis = np.eye(3)
    return ([sine_perturbation(basis[i], f"sine_e{i + 1}") for i in range(3)]
            + [bump_perturbation(basis[i], f"bump_e{i + 1}") for i in range(3)])


DICTIONARIES = {"default": default_dictionary,
                "deterministic": deterministic_dictionary}


# ---------------------------------------------------------------------------

def action_per_path(case: FlowCase, ensemble: PathEnsemble) -> Array:
    """Per-path action sum_k (|v_k|^2 / 2 - p(1 - t_k, X_k)) dt."""
    require_tag(ensemble, pu_tag(case))
    u, p = case.velocity.eval, case.pressure.eval

    def term(t, x, dx):
        return 0.5 * (u(t, x)**2).sum(axis=-1) - p(t, x)

    return left_point_sum(term, ensemble) * ensemble.grid.dt


def stochastic_action(case: FlowCase, ensemble: PathEnsemble) -> EstimateWithError:
    return mean_with_error(action_per_path(case, ensemble))


def _derivative(v: Array, gp: Array, ensemble: PathEnsemble,
                h: PerturbationField) -> EstimateWithError:
    """Contract drift v (N, M+1, 3) and left-point grad p (N, M, 3) with h.

    Works one component at a time from h's profile, so its scratch is a few
    (N, M) arrays.  Each inner product is summed from zero in component
    order, as ``.sum(axis=-1)`` does, and the (N, M) integrand is reduced
    along its contiguous rows.
    """
    base, dbase, weight = h.profile(ensemble)
    m = ensemble.grid.steps

    def inner(field, profile):
        total = np.zeros((ensemble.n_paths, m))
        term = np.empty_like(total)
        for j in range(3):
            np.multiply(profile[:m], weight[:, j, None], out=term)
            total += np.multiply(field[:, :m, j], term, out=term)
        return total

    integrand = inner(v, dbase)
    integrand -= inner(gp, base)
    per_path = integrand.sum(axis=1) * ensemble.grid.dt
    return mean_with_error(per_path)


def action_derivative_analytic(case: FlowCase, ensemble: PathEnsemble,
                               h: PerturbationField) -> EstimateWithError:
    """First-order action derivative E[sum (<v, hdot> - <grad p, h>) dt]."""
    v = drift_process(case, ensemble).values
    gp = along_paths(case.pressure.gradient, ensemble, ensemble.grid.steps)
    return _derivative(v, gp, ensemble, h)


def action_derivatives_fd(case: FlowCase, ensemble: PathEnsemble, dictionary: list,
                          eps: float = 1e-2) -> list:
    """Central-difference derivatives of the pushforward action, one per probe.

    The path map omega -> omega + eps*h moves positions to X + eps*h and the
    drift process to v + eps*hdot; the difference quotient uses common random
    numbers, so only the genuinely nonlinear (pressure) part contributes
    O(eps^2) error.  The drift is evaluated once per step and shared by every
    probe, which keeps O(N) scratch per probe and adds its terms in increasing
    k.  Pressure is evaluated afresh at every shifted position: this is the
    independent check on the analytic derivative and reads nothing from it.
    Contiguous path chunks run on the worker threads (``run_chunks``); every
    operation is elementwise per path, so the result does not depend on them.
    """
    if not _EPS_RANGE[0] <= eps <= _EPS_RANGE[1]:
        raise ValueError(f"eps must lie in {_EPS_RANGE}")
    require_tag(ensemble, pu_tag(case))
    u, p = case.velocity.eval, case.pressure.eval
    x = ensemble.positions
    grid = ensemble.grid
    times = grid.times
    n = ensemble.n_paths
    profiles = [h.profile(ensemble) for h in dictionary]
    shifts = (eps, -eps)
    acc = np.zeros((len(profiles), len(shifts), n))

    def chunk(lo, hi):
        # per-path gate weights are cut to the chunk; directions broadcast
        local = [(base, dbase, weight[lo:hi] if len(weight) == n else weight)
                 for base, dbase, weight in profiles]
        for k in range(grid.steps):
            t_rev = 1.0 - times[k]
            x_k = x[lo:hi, k]
            v_k = -u(t_rev, x_k)
            for (base, dbase, weight), acc_h in zip(local, acc[:, :, lo:hi]):
                h_k, hdot_k = base[k] * weight, dbase[k] * weight
                for shift, acc_s in zip(shifts, acc_h):
                    vs = v_k + shift * hdot_k
                    # |vs|^2 summed in the order .sum(axis=-1) uses, without its overhead
                    acc_s += (0.5 * (vs[:, 0]**2 + vs[:, 1]**2 + vs[:, 2]**2)
                              - p(t_rev, x_k + shift * h_k))

    run_chunks(n, chunk)
    return [mean_with_error((plus * grid.dt - minus * grid.dt) / (2.0 * eps))
            for plus, minus in acc]


def action_derivative_fd(case: FlowCase, ensemble: PathEnsemble,
                         h: PerturbationField, eps: float = 1e-2) -> EstimateWithError:
    """``action_derivatives_fd`` for the single probe h."""
    return action_derivatives_fd(case, ensemble, [h], eps)[0]


def least_action_check(case: FlowCase, ensemble: PathEnsemble,
                       dictionary: Optional[list] = None,
                       alpha: float = 0.01) -> dict:
    """Criticality verdict over a perturbation dictionary.

    Each entry contributes z = estimate / SE; the verdict is "critical" iff
    max |z| stays under the two-sided Bonferroni quantile at level alpha.
    """
    entries = dictionary if dictionary is not None else default_dictionary()
    if not entries:
        raise ValueError("dictionary must be non-empty")
    if ensemble.n_paths < 2:
        raise ValueError("least_action_check needs N >= 2 paths for a standard error")
    v = drift_process(case, ensemble).values
    gp = along_paths(case.pressure.gradient, ensemble, ensemble.grid.steps)
    rows = []
    for h in entries:
        est = _derivative(v, gp, ensemble, h)
        if est.std_error > 0:
            z = est.value / est.std_error
        else:
            z = 0.0 if abs(est.value) < 1e-14 else float(np.inf)
        rows.append({"h": h.label, "estimate": est.value,
                     "std_error": est.std_error, "z": z})
    max_abs_z = max(abs(r["z"]) for r in rows)
    threshold = NormalDist().inv_cdf(1.0 - alpha / (2.0 * len(rows)))
    return {
        "entries": rows,
        "max_abs_z": max_abs_z,
        "threshold": threshold,
        "verdict": "critical" if max_abs_z <= threshold else "not critical",
    }
