"""Invariant processes attached to symmetries, and the symmetry gate.

For the kinetic-minus-pressure Lagrangian the conjugate momentum is the
drift process itself, so the Euler-Lagrange candidate martingale is

    N_k = v_k + sum_{j<k} grad p(1 - t_j, X_j) dt,

a martingale exactly when the field solves the momentum balance.  A
one-parameter symmetry with generator xi contributes the invariant process

    I_k = <xi(t_k, X_k), v_k> - sum_i [xi^i(., X), v^i]_k + sum_{j<k} theta_j dt,

where the bracket is the pathwise quadratic covariation of the sampled
processes and theta contracts the dispersion sensitivity of the Lagrangian
against kappa = alpha grad(xi)^T + grad(xi) alpha.  The Lagrangian here has
no dispersion dependence, so theta vanishes identically and is omitted.

Rotation about e3 admits a closed form: the kinetic momentum
l = X^1 v^2 - X^2 v^1 compensated by the running integral of the third curl
component along the path, which serves as the analytic oracle for the
empirical bracket above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import (PathEnsemble, ProcessSample, drift_process, drift_slice,
                     pu_tag, require_tag)
from .fields import Array, FlowCase
from .catalog import probe_grid
from .martingale import martingale_test

SYMMETRY_GATE_TOL = 1e-6


class UnknownGeneratorError(KeyError):
    """Raised for generator names outside the built-in registry."""


@dataclass(frozen=True)
class GeneratorField:
    """Infinitesimal symmetry generator xi with its finite flow: flow(eps, x)
    moves the points x, (..., 3), by the flow parameter eps along xi."""

    name: str
    xi: Callable[[float, Array], Array]
    flow: Callable[[float, Array], Array]


def _translation_xi(t, x):
    out = np.zeros_like(x)
    out[..., 2] = 1.0
    return out


def _translation_flow(eps, x):
    out = x.copy()
    out[..., 2] += eps
    return out


def _rotation_xi(t, x):
    return np.stack([-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])], axis=-1)


def _rotation_flow(eps, x):
    c, s = np.cos(eps), np.sin(eps)
    return np.stack([c * x[..., 0] - s * x[..., 1],
                     s * x[..., 0] + c * x[..., 1],
                     x[..., 2]], axis=-1)


TRANSLATION_E3 = GeneratorField("translation_e3", _translation_xi, _translation_flow)
ROTATION_E3 = GeneratorField("rotation_e3", _rotation_xi, _rotation_flow)

GENERATORS = {g.name: g for g in (TRANSLATION_E3, ROTATION_E3)}


def get_generator(name: str) -> GeneratorField:
    if name not in GENERATORS:
        raise UnknownGeneratorError(name)
    return GENERATORS[name]


# ---------------------------------------------------------------------------
# invariant processes

def el_process(case: FlowCase, ensemble: PathEnsemble) -> ProcessSample:
    """Euler-Lagrange candidate: drift plus accumulated pressure gradient.

    The pressure-gradient sum runs one time slice at a time and is added to
    the drift process in place, in ``np.cumsum``'s order, so the values are
    those of the whole-array construction.
    """
    values = drift_process(case, ensemble).values
    grid, x = ensemble.grid, ensemble.positions
    for k, t in enumerate(grid.times[:-1]):     # one time slice at a time
        gp = case.pressure.gradient(1.0 - t, x[:, k]) * grid.dt
        running = gp if k == 0 else running + gp            # cumsum's order
        values[:, k + 1] += running
    return ProcessSample(grid, values, f"el({case.name})")


def el_reports(case: FlowCase, ensemble: PathEnsemble, alpha: float) -> list:
    """The martingale test of each component of ``el_process(case, ensemble)``."""
    process = el_process(case, ensemble)
    return [martingale_test(process.component(i), ensemble, alpha=alpha)
            for i in range(3)]


def noether_process_general(case: FlowCase, ensemble: PathEnsemble,
                            gen: GeneratorField) -> ProcessSample:
    """Invariant process for an arbitrary generator, with empirical bracket.

    The covariation term is estimated pathwise from products of increments of
    the sampled processes xi(t_k, X_k) and v_k, which keeps the construction
    usable for any generator; the closed-form rotation process is its
    analytic oracle.
    """
    require_tag(ensemble, pu_tag(case))
    grid, x = ensemble.grid, ensemble.positions
    values = np.empty(x.shape[:2])
    bracket = 0.0
    for k, t in enumerate(grid.times):     # one time slice at a time
        v = drift_slice(case, t, x[:, k])
        xi = gen.xi(t, x[:, k])
        if k:
            prod = ((xi - xi_prev) * (v - v_prev)).sum(axis=-1)
            bracket = prod if k == 1 else bracket + prod    # cumsum's order
        values[:, k] = (xi * v).sum(axis=-1) - bracket
        xi_prev, v_prev = xi, v
    return ProcessSample(grid, values, f"noether({gen.name},{case.name})")


def noether_rotation_closed_form(case: FlowCase, ensemble: PathEnsemble,
                                 include_compensator: bool = True) -> ProcessSample:
    """Kinetic momentum about e3 with its curl compensator.

    I_k = X^1 v^2 - X^2 v^1 + sum_{j<k} (curl u)_3(1 - t_j, X_j) dt.
    Dropping the compensator (the ablation) leaves the raw kinetic momentum,
    which is not a martingale unless the vorticity vanishes.
    """
    require_tag(ensemble, pu_tag(case))
    grid, x = ensemble.grid, ensemble.positions
    curl = case.velocity.curl
    values = np.empty(x.shape[:2])
    for k, t in enumerate(grid.times):     # one time slice at a time
        v = drift_slice(case, t, x[:, k])
        values[:, k] = x[:, k, 0] * v[:, 1] - x[:, k, 1] * v[:, 0]
        if not include_compensator:
            continue
        if k:
            values[:, k] += running
        if k < grid.steps:
            comp = curl(1.0 - t, x[:, k])[..., 2] * grid.dt
            running = comp if k == 0 else running + comp    # cumsum's order
    label = "kinetic_momentum" if not include_compensator else "noether_rotation"
    return ProcessSample(grid, values, f"{label}({case.name})")


# ---------------------------------------------------------------------------
# symmetry gate

@dataclass(frozen=True)
class SymmetryCheckReport:
    max_pressure_violation: float
    max_speed_violation: float
    grid_description: str

    @property
    def within_gate(self) -> bool:
        return (self.max_pressure_violation <= SYMMETRY_GATE_TOL
                and self.max_speed_violation <= SYMMETRY_GATE_TOL)

    def to_dict(self) -> dict:
        return {
            "max_pressure_violation": self.max_pressure_violation,
            "max_speed_violation": self.max_speed_violation,
            "grid": self.grid_description,
            "gate_tolerance": SYMMETRY_GATE_TOL,
            "within_gate": self.within_gate,
        }


def symmetry_check(case: FlowCase, gen: GeneratorField) -> SymmetryCheckReport:
    """Sup-norm invariance violations of p and |u| under the generator flow.

    The Lagrangian symmetry reduces to pressure invariance plus drift-speed
    invariance under the finite flow ``gen.flow``; both are probed over the
    standard grid and a small set of flow parameters.
    """
    times, points = probe_grid()
    eps_values = (-0.5, -0.1, 0.1, 0.5)
    p_viol = 0.0
    u_viol = 0.0
    for t in times:
        p0 = case.pressure.eval(float(t), points)
        s0 = np.linalg.norm(case.velocity.eval(float(t), points), axis=-1)
        for eps in eps_values:
            moved = gen.flow(eps, points)
            p_viol = max(p_viol, float(np.abs(case.pressure.eval(float(t), moved) - p0).max()))
            s1 = np.linalg.norm(case.velocity.eval(float(t), moved), axis=-1)
            u_viol = max(u_viol, float(np.abs(s1 - s0).max()))
    desc = f"5x5x5x5 probe grid, eps in {eps_values}"
    return SymmetryCheckReport(p_viol, u_viol, desc)
