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
derivative from the action alone as an independent oracle.  The action and
the derivative estimators take (case, n_paths, steps, seed) and walk the
paths of ``simulate_pu(case, n_paths, steps, seed)`` piece by piece, keeping
no ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .engine import TimeGrid, alloc, walk_pieces
from .fields import Array, FlowCase
from .girsanov import EstimateWithError, drifted_path_functionals, mean_with_error
from .martingale import bonferroni_quantile, z_scores

FD_EPS = 1e-2       # the finite-difference oracle's step along each probe
FOLD_PATHS = 256    # paths per analytic-kernel fold, fixed like engine.PIECE_PATHS


@dataclass(frozen=True)
class PerturbationField:
    """Adapted perturbation with h(0) = h(1) = 0 exactly.

    ``profile(times, x)`` gives (base, dbase, weight) with h_k = base[k] *
    weight and hdot_k = dbase[k] * weight on the grid times (M+1,) of the
    time-major positions x, (M+1, P, 3).  base and dbase have shape (M+1,);
    weight is (1, 3) for a deterministic direction, or a per-path (P, 3)
    value read from x at the activation time, which keeps a random h adapted.
    """

    label: str
    profile: Callable[[Array, Array], tuple]


def sine_perturbation(direction: Array, label: str = "") -> PerturbationField:
    c = np.asarray(direction, dtype=float)

    def profile(times, x):
        base = np.sin(np.pi * times)
        base[0] = base[-1] = 0.0
        return base, np.pi * np.cos(np.pi * times), c[None, :]

    return PerturbationField(label or f"sine{tuple(c)}", profile)


def bump_perturbation(direction: Array, label: str = "") -> PerturbationField:
    c = np.asarray(direction, dtype=float)

    def profile(times, x):
        return times * (1.0 - times), 1.0 - 2.0 * times, c[None, :]

    return PerturbationField(label or f"bump{tuple(c)}", profile)


def gated_tanh_perturbation(activation: float, label: str = "") -> PerturbationField:
    """Switches on at the activation time a and points along tanh of the path
    position there."""
    if not 0.0 < activation < 1.0:
        raise ValueError("activation time must lie in (0, 1)")
    a = activation

    def profile(times, x):
        k_a = int(np.floor(a * (len(times) - 1)))
        on = times >= a
        phase = np.pi * (times - a) / (1.0 - a)
        base = np.where(on, np.sin(phase), 0.0)
        base[-1] = 0.0
        dbase = np.where(on, np.pi / (1.0 - a) * np.cos(phase), 0.0)
        return base, dbase, np.tanh(x[k_a])

    return PerturbationField(label or f"gated_tanh(a={activation})", profile)


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

def action_per_path(case: FlowCase, n_paths: int, steps: int, seed: int) -> Array:
    """Per-path action sum_k (|v_k|^2 / 2 - p(1 - t_k, X_k)) dt."""
    return drifted_path_functionals(case, n_paths, steps, seed)[2]


def stochastic_action(case: FlowCase, n_paths: int, steps: int,
                      seed: int) -> EstimateWithError:
    return mean_with_error(action_per_path(case, n_paths, steps, seed))


def _tables(case: FlowCase, n_paths: int, steps: int, seed: int,
            dictionary: list, kernels) -> Array:
    """One (J, N) per-path table per kernel, ``_analytic_kernel`` or
    ``_fd_kernel``, from kernel(case, grid)(x, v, profiles, out) on each piece
    ``walk_pieces`` hands out: x is its time-major positions, (M+1, P, 3), v the
    drift the walk used for k < M, (P, M, 3), and out its (J, P) slice."""
    grid = TimeGrid(steps)
    kernels = [kernel(case, grid) for kernel in kernels]
    tables = alloc((len(kernels), len(dictionary), n_paths), np.empty)

    def visit(lo, x, v):
        profiles = [h.profile(grid.times, x) for h in dictionary]
        for kernel, table in zip(kernels, tables):
            kernel(x, v, profiles, table[:, lo:lo + x.shape[1]])

    walk_pieces(case, n_paths, steps, seed, visit)
    return tables


def _analytic_kernel(case: FlowCase, grid: TimeGrid):
    """kernel(x, v, profiles, out): per-path sum_k (<v_k, hdot_k>
    - <grad p(1 - t_k, X_k), h_k>) dt of a piece into out, (J, P).

    The piece adds grad p for k < M, the shape of v, and three (FOLD_PATHS, M)
    planes through which each probe folds FOLD_PATHS paths at a time.  Inner
    products add components from zero in order, as ``.sum(axis=-1)`` does, and
    each contiguous integrand row is summed whole, whatever the fold.
    """
    grad_p, times, m, dt = case.pressure.gradient, grid.times, grid.steps, grid.dt

    def kernel(x, v, profiles, out):
        gp = np.empty_like(v)
        for k in range(m):
            gp[:, k] = grad_p(1.0 - times[k], x[k])
        # a component with a zero weight column adds +-0 terms to sums that
        # start at +0, which leaves every bit as it is; a non-finite v or
        # grad p would add nan there instead, so then every component is added
        finite = np.isfinite(v).all() and np.isfinite(gp).all()
        planes = np.empty((3, min(len(v), FOLD_PATHS), m))
        for (base, dbase, weight), row in zip(profiles, out):
            columns = [j for j in range(3) if not finite or weight[:, j].any()]
            for lo in range(0, len(v), FOLD_PATHS):
                hi = min(lo + FOLD_PATHS, len(v))
                kinetic, potential, product = planes[:, :hi - lo]
                w = weight if len(weight) == 1 else weight[lo:hi]
                kinetic.fill(0.0)
                potential.fill(0.0)
                for j in columns:
                    for acc, field, profile in ((kinetic, v, dbase), (potential, gp, base)):
                        # field * (profile * weight); a per-path factor is built in
                        # product, where the field multiplies it in place
                        factor = (profile[:m] * w[:, j, None] if len(w) == 1 else
                                  np.multiply(profile[:m], w[:, j, None], out=product))
                        acc += np.multiply(field[lo:hi, :, j], factor, out=product)
                np.subtract(kinetic, potential, out=kinetic)
                np.multiply(kinetic.sum(axis=1), dt, out=row[lo:hi])

    return kernel


def _fd_kernel(case: FlowCase, grid: TimeGrid):
    """kernel(x, v, profiles, out): per-path central difference of the
    pushforward action of a piece into out, (J, P), at step FD_EPS.

    The path map omega -> omega + eps*h moves positions to X + eps*h and the
    drift process to v + eps*hdot.  The piece stacks the shifted drifts and
    positions of every probe and sign in two (2J, P, 3) arrays, so one p call
    per step serves them all, and adds each path's terms in increasing k.  p
    is evaluated afresh at every shifted position: this is the independent
    check on the analytic derivative and reads nothing from it.
    """
    p, times, m, dt = case.pressure.eval, grid.times, grid.steps, grid.dt
    shifts = np.array([FD_EPS, -FD_EPS])[:, None, None]

    def kernel(x, v, profiles, out):
        b, probes = len(v), len(profiles)
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
            xs += x[k]
            vk = vs.reshape(probes * 2, b, 3)
            # |vs|^2 / 2 - p, |vs|^2 summed in the order .sum(axis=-1) uses
            np.square(vk[..., 0], out=term)
            term += np.square(vk[..., 1], out=square)
            term += np.square(vk[..., 2], out=square)
            term *= 0.5
            term -= p(1.0 - times[k], xs.reshape(probes * 2, b, 3))
            acc += term
        out[:] = (acc[0::2] * dt - acc[1::2] * dt) / (2.0 * FD_EPS)

    return kernel


def action_derivative_analytic(case: FlowCase, n_paths: int, steps: int,
                               seed: int, h: PerturbationField) -> EstimateWithError:
    """First-order action derivative E[sum (<v, hdot> - <grad p, h>) dt]."""
    return mean_with_error(_tables(case, n_paths, steps, seed, [h],
                                   [_analytic_kernel])[0, 0])


def action_derivatives_fd(case: FlowCase, n_paths: int, steps: int, seed: int,
                          dictionary: list) -> list:
    """Central-difference derivatives of the pushforward action, one per probe.

    The difference quotient uses common random numbers, so only the genuinely
    nonlinear (pressure) part contributes O(FD_EPS^2) error.  Each path point
    sees u once, and p once per probe and sign.
    """
    return [mean_with_error(row) for row in
            _tables(case, n_paths, steps, seed, dictionary, [_fd_kernel])[0]]


def action_derivative_fd(case: FlowCase, n_paths: int, steps: int, seed: int,
                         h: PerturbationField) -> EstimateWithError:
    """``action_derivatives_fd`` for the single probe h."""
    return action_derivatives_fd(case, n_paths, steps, seed, [h])[0]


def criticality_tables(case: FlowCase, n_paths: int, steps: int, seed: int,
                       dictionary: list):
    """The analytic and finite-difference (J, N) tables from one walk: both
    kernels read the drift the walk computed; the FD kernel still evaluates p
    at its own shifted points."""
    return tuple(_tables(case, n_paths, steps, seed, dictionary,
                         [_analytic_kernel, _fd_kernel]))


def criticality_report(entries: list, table: Array, alpha: float = 0.01) -> dict:
    """The ``least_action_check`` verdict from the (J, N) analytic table."""
    if not entries:
        raise ValueError("dictionary must be non-empty")
    if table.shape[1] < 2:
        raise ValueError("least_action_check needs N >= 2 paths for a standard error")
    rows = []
    for h, per_path in zip(entries, table):
        est = mean_with_error(per_path)
        rows.append({"h": h.label, "estimate": est.value, "std_error": est.std_error,
                     "z": float(z_scores(est.value, est.std_error))})
    max_abs_z = max(abs(r["z"]) for r in rows)
    threshold = bonferroni_quantile(alpha, len(rows))
    return {"entries": rows, "max_abs_z": max_abs_z, "threshold": threshold,
            "verdict": "critical" if max_abs_z <= threshold else "not critical"}


def least_action_check(case: FlowCase, n_paths: int, steps: int, seed: int,
                       dictionary: Optional[list] = None,
                       alpha: float = 0.01) -> dict:
    """Criticality verdict over a perturbation dictionary.

    Each entry contributes z = estimate / SE; the verdict is "critical" iff
    max |z| stays under the two-sided Bonferroni quantile at level alpha.
    """
    if n_paths < 2:
        raise ValueError("least_action_check needs N >= 2 paths for a standard error")
    entries = dictionary if dictionary is not None else default_dictionary()
    if not entries:
        raise ValueError("dictionary must be non-empty")
    table = _tables(case, n_paths, steps, seed, entries, [_analytic_kernel])[0]
    return criticality_report(entries, table, alpha)
