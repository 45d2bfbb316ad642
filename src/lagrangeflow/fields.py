"""Time-dependent velocity and pressure fields on [0, 1] x R^3.

A flow case bundles a divergence-free velocity field u and a nonnegative
pressure field p, both smooth and bounded, together with the analytic
derivatives every downstream estimator needs (time derivative, Jacobian,
Laplacian, pressure gradient).  All evaluators are vectorized: they accept
points of shape (..., 3) and broadcast a scalar time over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class VelocityField:
    """Velocity field with analytic derivatives.

    ``bound`` is a sup-norm bound on the field and its first derivatives
    (space and time).  The curl is always derived from the Jacobian entries,
    so the two are consistent bit for bit.
    """

    eval: Callable[[float, Array], Array]
    time_deriv: Callable[[float, Array], Array]
    jacobian: Callable[[float, Array], Array]      # J[..., i, j] = d_j u^i
    laplacian: Callable[[float, Array], Array]
    bound: float

    def curl(self, t: float, x: Array) -> Array:
        J = self.jacobian(t, x)
        return np.stack(
            [
                J[..., 2, 1] - J[..., 1, 2],
                J[..., 0, 2] - J[..., 2, 0],
                J[..., 1, 0] - J[..., 0, 1],
            ],
            axis=-1,
        )


@dataclass(frozen=True)
class PressureField:
    """Nonnegative pressure field with analytic gradient."""

    eval: Callable[[float, Array], Array]
    gradient: Callable[[float, Array], Array]
    bound: float


@dataclass(frozen=True)
class FlowCase:
    """A named (velocity, pressure) pair, plus verification metadata.

    ``is_exact_solution`` declares whether the pair solves the momentum
    balance with unit-half viscosity; ``residual_tol`` is the sup-norm
    residual the case promises on the standard probe grid when it does.
    ``symmetries`` are descriptive tags ({"translation_e3", "rotation_e3"});
    the CLI gate re-derives symmetry from the fields and never trusts them.
    """

    name: str
    velocity: VelocityField
    pressure: PressureField
    is_exact_solution: bool
    symmetries: frozenset = field(default_factory=frozenset)
    residual_tol: float = 1e-8


def rotated_case(case: FlowCase, rot: Array, name: str) -> FlowCase:
    """Conjugate a flow case by an orthogonal matrix: u'(t,x) = R u(t, R^T x).

    Orthogonal conjugation maps exact solutions to exact solutions and
    preserves all bounds, so the derived case inherits ``is_exact_solution``
    and ``residual_tol``.  It carries no symmetry tags.
    """
    R = np.asarray(rot, dtype=float)
    if R.shape != (3, 3) or not np.allclose(R @ R.T, np.eye(3), atol=1e-12):
        raise ValueError("rot must be a 3x3 orthogonal matrix")
    Rt = R.T.copy()
    vel, pre = case.velocity, case.pressure

    def _pull(x):
        return x @ R        # (R^T x)_i = x_j R_ji, row-vector convention

    def u_eval(t, x):
        return vel.eval(t, _pull(x)) @ Rt

    def u_dt(t, x):
        return vel.time_deriv(t, _pull(x)) @ Rt

    def u_jac(t, x):
        J = vel.jacobian(t, _pull(x))
        return np.einsum("ab,...bc,dc->...ad", R, J, R)

    def u_lap(t, x):
        return vel.laplacian(t, _pull(x)) @ Rt

    def p_eval(t, x):
        return pre.eval(t, _pull(x))

    def p_grad(t, x):
        return pre.gradient(t, _pull(x)) @ Rt

    return FlowCase(
        name=name,
        velocity=VelocityField(u_eval, u_dt, u_jac, u_lap, vel.bound),
        pressure=PressureField(p_eval, p_grad, pre.bound),
        is_exact_solution=case.is_exact_solution,
        residual_tol=case.residual_tol,
    )
