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

from .engine import PathEnsemble, ProcessSample, adapted_process, drift_process
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

def el_process(ensemble: PathEnsemble) -> ProcessSample:
    """Euler-Lagrange candidate: drift plus accumulated pressure gradient,
    built in the drift's own pass (bench/tracer.py times ``drift_process``)."""
    case, dt = ensemble.flow, ensemble.grid.dt
    drift = drift_process(ensemble, step=lambda prev, here:
                          case.pressure.gradient(1.0 - prev[0], prev[1]) * dt)
    return ProcessSample(ensemble, drift.values, f"el({case.name})")


def el_reports(ensemble: PathEnsemble, alpha: float) -> list:
    """The martingale test of each component of ``el_process(ensemble)``."""
    process = el_process(ensemble)
    return [martingale_test(process.component(i), alpha=alpha) for i in range(3)]


def noether_process_general(ensemble: PathEnsemble, gen: GeneratorField) -> ProcessSample:
    """Invariant process for an arbitrary generator, with empirical bracket.

    The covariation term is estimated pathwise from products of increments of
    the sampled processes xi(t_k, X_k) and v_k, which keeps the construction
    usable for any generator; the closed-form rotation process is its
    analytic oracle.
    """
    def point(t, x, v):         # xi rides in the slice, for step to read
        xi = gen.xi(t, x)
        return (xi * v).sum(axis=-1), xi

    def step(prev, here):       # minus the bracket: a - b == a + (-b) bit for bit
        return -((here[3] - prev[3]) * (here[2] - prev[2])).sum(axis=-1)

    return adapted_process(ensemble, f"noether({gen.name},{ensemble.flow.name})",
                           point, step)


def noether_rotation_closed_form(ensemble: PathEnsemble,
                                 include_compensator: bool = True) -> ProcessSample:
    """Kinetic momentum about e3 with its curl compensator.

    I_k = X^1 v^2 - X^2 v^1 + sum_{j<k} (curl u)_3(1 - t_j, X_j) dt.
    Dropping the compensator (the ablation) leaves the raw kinetic momentum,
    which is not a martingale unless the vorticity vanishes.
    """
    case, dt = ensemble.flow, ensemble.grid.dt
    label = "noether_rotation" if include_compensator else "kinetic_momentum"
    return adapted_process(
        ensemble, f"{label}({case.name})",
        lambda t, x, v: (x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0], None),
        (lambda prev, here: case.velocity.curl(1.0 - prev[0], prev[1])[..., 2] * dt)
        if include_compensator else None)


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
            # np.maximum keeps a nan, which then fails the gate
            p_viol = float(np.maximum(
                p_viol, np.abs(case.pressure.eval(float(t), moved) - p0).max()))
            s1 = np.linalg.norm(case.velocity.eval(float(t), moved), axis=-1)
            u_viol = float(np.maximum(u_viol, np.abs(s1 - s0).max()))
    desc = f"5x5x5x5 probe grid, eps in {eps_values}"
    return SymmetryCheckReport(p_viol, u_viol, desc)
