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

from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from .engine import (CHUNK_FLOOR, PIECE_PATHS, PathEnsemble, TimeGrid, drift_slice,
                     pu_tag, require_tag, run_chunks, walk_pieces)
from .fields import Array, FlowCase
from .girsanov import EstimateWithError, drifted_path_functionals, mean_with_error

_EPS_RANGE = (1e-4, 1e-1)
_CHECK_PATHS = PIECE_PATHS  # paths per analytic sub-block, whose scratch is O(M) per path


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


def deterministic_dictionary() -> list:
    basis = np.eye(3)
    return ([sine_perturbation(basis[i], f"sine_e{i + 1}") for i in range(3)]
            + [bump_perturbation(basis[i], f"bump_e{i + 1}") for i in range(3)])


def default_dictionary() -> list:
    """Nine probes: sine and bump along each axis, plus three tanh gates."""
    return deterministic_dictionary() + [gated_tanh_perturbation(a)
                                         for a in (0.25, 0.5, 0.75)]


DICTIONARIES = {"default": default_dictionary,
                "deterministic": deterministic_dictionary}


# ---------------------------------------------------------------------------

def action_per_path(case: FlowCase, ensemble: PathEnsemble) -> Array:
    """Per-path action sum_k (|v_k|^2 / 2 - p(1 - t_k, X_k)) dt."""
    return drifted_path_functionals(case, ensemble)[2]


def stochastic_action(case: FlowCase, ensemble: PathEnsemble) -> EstimateWithError:
    return mean_with_error(action_per_path(case, ensemble))


def _per_path_table(case: FlowCase, ensemble: PathEnsemble, dictionary: list,
                    kernel, size: int = CHUNK_FLOOR) -> Array:
    """(J, N) per-path values, one row per probe, from kernel(rows, v, profiles,
    out) on the ensemble cut to blocks of at most ``size`` paths, on the worker
    threads; v is the block's drift -u(1 - t_k, X_k) for k < M, (B, M, 3), and
    out the block's (J, B) slice.  No entry depends on its block.
    """
    require_tag(ensemble, pu_tag(case))
    times, m = ensemble.grid.times, ensemble.grid.steps
    table = np.empty((len(dictionary), ensemble.n_paths))

    def chunk(lo, hi):
        for a in range(lo, hi, size):
            b = min(a + size, hi)
            rows = replace(ensemble, positions=ensemble.positions[a:b])
            v = np.empty((b - a, m, 3))
            for k in range(m):
                drift_slice(case, times[k], rows.positions[:, k], out=v[:, k])
            kernel(rows, v, [h.profile(rows) for h in dictionary], table[:, a:b])

    run_chunks(ensemble.n_paths, chunk)
    return table


def _analytic_kernel(case: FlowCase, grid: TimeGrid):
    """kernel(rows, v, profiles, out): per-path sum_k (<v_k, hdot_k>
    - <grad p(1 - t_k, X_k), h_k>) dt of a path block into out, (J, B).

    The block adds grad p for k < M, the shape of v, and a few (B, M) arrays.
    Inner products add components from zero in order, as ``.sum(axis=-1)``
    does, and each contiguous integrand row is summed whole.
    """
    grad_p, times, m, dt = case.pressure.gradient, grid.times, grid.steps, grid.dt

    def kernel(rows, v, profiles, out):
        gp = np.empty_like(v)
        for k in range(m):
            gp[:, k] = grad_p(1.0 - times[k], rows.positions[:, k])
        # a component with a zero weight column adds +-0 terms to sums that
        # start at +0, which leaves every bit as it is; a non-finite v or
        # grad p would add nan there instead, so then every component is added
        finite = np.isfinite(v).all() and np.isfinite(gp).all()
        for (base, dbase, weight), row in zip(profiles, out):
            kinetic, potential = np.zeros((2, rows.n_paths, m))
            for j in range(3):
                if finite and not weight[:, j].any():
                    continue
                kinetic += v[..., j] * (dbase[:m] * weight[:, j, None])
                potential += gp[..., j] * (base[:m] * weight[:, j, None])
            np.multiply((kinetic - potential).sum(axis=1), dt, out=row)

    return kernel


def _fd_kernel(case: FlowCase, grid: TimeGrid, eps: float):
    """kernel(rows, v, profiles, out): per-path central difference of the
    pushforward action of a path block into out, (J, B).

    The path map omega -> omega + eps*h moves positions to X + eps*h and the
    drift process to v + eps*hdot.  The block stacks the shifted drifts and
    positions of every probe and sign in two (2J, B, 3) arrays, so one p call
    per step serves them all, and adds each path's terms in increasing k.  p
    is evaluated afresh at every shifted position: this is the independent
    check on the analytic derivative and reads nothing from it.
    """
    if not _EPS_RANGE[0] <= eps <= _EPS_RANGE[1]:
        raise ValueError(f"eps must lie in {_EPS_RANGE}")
    p, times, m, dt = case.pressure.eval, grid.times, grid.steps, grid.dt
    shifts = np.array([eps, -eps])[:, None, None]

    def kernel(rows, v, profiles, out):
        x, b, probes = rows.positions, rows.n_paths, len(profiles)
        base, dbase = np.array([prof[:2] for prof in profiles]).swapaxes(0, 1)
        weight = np.array([np.broadcast_to(w, (b, 3)) for _, _, w in profiles])
        h_k = np.empty_like(weight)
        xs, vs = np.empty((2, probes, 2, b, 3))
        acc = np.zeros((probes * 2, b))
        term, square = np.empty((2, probes * 2, b))
        for k in range(m):
            # each (probe, sign) row takes shift * hdot_k + v_k and
            # shift * h_k + x_k: the operations of one probe at a time
            np.multiply(dbase[:, k, None, None], weight, out=h_k)
            np.multiply(h_k[:, None], shifts, out=vs)
            vs += np.ascontiguousarray(v[:, k])    # one gather, not one per row
            np.multiply(base[:, k, None, None], weight, out=h_k)
            np.multiply(h_k[:, None], shifts, out=xs)
            xs += x[:, k]
            vk = vs.reshape(probes * 2, b, 3)
            # |vs|^2 / 2 - p, |vs|^2 summed in the order .sum(axis=-1) uses
            np.square(vk[..., 0], out=term)
            term += np.square(vk[..., 1], out=square)
            term += np.square(vk[..., 2], out=square)
            term *= 0.5
            term -= p(1.0 - times[k], xs.reshape(probes * 2, b, 3))
            acc += term
        out[:] = (acc[0::2] * dt - acc[1::2] * dt) / (2.0 * eps)

    return kernel


def _analytic_table(case: FlowCase, ensemble: PathEnsemble, dictionary: list) -> Array:
    """Per-path sum_k (<v_k, hdot_k> - <grad p(1 - t_k, X_k), h_k>) dt, (J, N)."""
    return _per_path_table(case, ensemble, dictionary,
                           _analytic_kernel(case, ensemble.grid), _CHECK_PATHS)


def _fd_table(case: FlowCase, ensemble: PathEnsemble, dictionary: list,
              eps: float) -> Array:
    """Per-path central differences of the pushforward action, (J, N)."""
    return _per_path_table(case, ensemble, dictionary,
                           _fd_kernel(case, ensemble.grid, eps))


def action_derivative_analytic(case: FlowCase, ensemble: PathEnsemble,
                               h: PerturbationField) -> EstimateWithError:
    """First-order action derivative E[sum (<v, hdot> - <grad p, h>) dt]."""
    return mean_with_error(_analytic_table(case, ensemble, [h])[0])


def action_derivatives_fd(case: FlowCase, ensemble: PathEnsemble, dictionary: list,
                          eps: float = 1e-2) -> list:
    """Central-difference derivatives of the pushforward action, one per probe.

    The difference quotient uses common random numbers, so only the genuinely
    nonlinear (pressure) part contributes O(eps^2) error.  Each path point
    sees u once, and p once per probe and sign.
    """
    return [mean_with_error(row) for row in _fd_table(case, ensemble, dictionary, eps)]


def action_derivative_fd(case: FlowCase, ensemble: PathEnsemble,
                         h: PerturbationField, eps: float = 1e-2) -> EstimateWithError:
    """``action_derivatives_fd`` for the single probe h."""
    return action_derivatives_fd(case, ensemble, [h], eps)[0]


def criticality_tables(case: FlowCase, n_paths: int, steps: int, seed: int,
                       dictionary: list, eps: float = 1e-2):
    """The analytic and finite-difference (J, N) tables of ``_analytic_table``
    and ``_fd_table`` on ``simulate_pu(case, n_paths, steps, seed)``, without
    the ensemble.

    Each simulated piece goes through both kernels with the drift the
    simulation computed, so u is evaluated once per path point; the FD kernel
    still evaluates p at its own shifted points.
    """
    grid = TimeGrid(steps)
    analytic, fd = _analytic_kernel(case, grid), _fd_kernel(case, grid, eps)
    tables = np.empty((2, len(dictionary), n_paths))
    tag = pu_tag(case)

    def visit(lo, x, v):
        rows = PathEnsemble(grid, x.transpose(1, 0, 2), tag, seed)
        profiles = [h.profile(rows) for h in dictionary]
        hi = lo + rows.n_paths
        analytic(rows, v, profiles, tables[0, :, lo:hi])
        fd(rows, v, profiles, tables[1, :, lo:hi])

    walk_pieces(case, n_paths, steps, seed, visit)
    return tables[0], tables[1]


def criticality_report(entries: list, table: Array, alpha: float = 0.01) -> dict:
    """The ``least_action_check`` verdict from the (J, N) analytic table."""
    if not entries:
        raise ValueError("dictionary must be non-empty")
    if table.shape[1] < 2:
        raise ValueError("least_action_check needs N >= 2 paths for a standard error")
    rows = []
    for h, per_path in zip(entries, table):
        est = mean_with_error(per_path)
        if est.std_error > 0:
            z = est.value / est.std_error
        else:
            z = 0.0 if abs(est.value) < 1e-14 else float(np.inf)
        rows.append({"h": h.label, "estimate": est.value,
                     "std_error": est.std_error, "z": z})
    max_abs_z = max(abs(r["z"]) for r in rows)
    threshold = NormalDist().inv_cdf(1.0 - alpha / (2.0 * len(rows)))
    return {"entries": rows, "max_abs_z": max_abs_z, "threshold": threshold,
            "verdict": "critical" if max_abs_z <= threshold else "not critical"}


def least_action_check(case: FlowCase, ensemble: PathEnsemble,
                       dictionary: Optional[list] = None,
                       alpha: float = 0.01) -> dict:
    """Criticality verdict over a perturbation dictionary.

    Each entry contributes z = estimate / SE; the verdict is "critical" iff
    max |z| stays under the two-sided Bonferroni quantile at level alpha.
    """
    entries = dictionary if dictionary is not None else default_dictionary()
    return criticality_report(entries, _analytic_table(case, ensemble, entries), alpha)
