"""The paper's path-space formulas in plain whole-array numpy: the one
reference every estimator in lagrangeflow is compared with.

Paths x are (N, M+1, 3) views of time-major (M+1, N, 3) arrays, as an
ensemble's positions are, so each time slice x[:, k] is contiguous.  Fields
are read at reversed time and left points, f(1 - t_k, X_k).  Every sum over k
adds from zero in increasing k, and every inner product adds its components
from zero in order: the association the estimators keep, so a reference
value equals the estimator's bit for bit whatever the paths' split into
blocks, pieces, workers and folds.
"""

import numpy as np

from lagrangeflow.action import FD_EPS, FOLD_PATHS
from lagrangeflow.engine import BLOCK_PATHS, CHUNK_FLOOR, PIECE_PATHS
from lagrangeflow.martingale import CLIP_SQ_AT, ZERO_MEAN_TOL

# N at one path, two, both sides of the edges of the analytic kernel's folds,
# the walk's pieces, the worker floor and the Philox blocks, and a third
# block of five paths
EDGES = [1, 2] + [edge + side for edge in (FOLD_PATHS, PIECE_PATHS, CHUNK_FLOOR,
                                           BLOCK_PATHS) for side in (-1, 1)] + [2 * BLOCK_PATHS + 5]


def _times(x):
    return np.arange(x.shape[1]) / (x.shape[1] - 1)


def _field(f, x, count):
    """f(1 - t_k, X_k) for k < count, stacked on axis 1."""
    times = _times(x)
    return np.stack([f(1.0 - times[k], x[:, k]) for k in range(count)], axis=1)


def increments(n_paths, steps, seed):
    """(N, M, 3) Gaussian increments of variance 1/M: one standard-normal draw
    per 8192-path block from the Philox generator keyed (seed, block index)."""
    out = np.empty((n_paths, steps, 3))
    for index, lo in enumerate(range(0, n_paths, BLOCK_PATHS)):
        block = out[lo:lo + BLOCK_PATHS]
        key = np.array([seed, index], np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=block)
        block *= np.sqrt(1.0 / steps)
    return out


def positions(case, n_paths, steps, seed):
    """Euler-Maruyama paths from 0, X_{k+1} = X_k + (-u(1 - t_k, X_k) dt + dW_k),
    on the increments above; Wiener paths (case None) take no drift."""
    dw, times = increments(n_paths, steps, seed), np.arange(steps + 1) / steps
    x = np.zeros((steps + 1, n_paths, 3))
    for k in range(steps):
        step = dw[:, k]
        if case is not None:
            step = -case.velocity.eval(1.0 - times[k], x[k]) * (1.0 / steps) + step
        x[k + 1] = x[k] + step
    return x.transpose(1, 0, 2)


def drift(case, x):
    """v_k = -u(1 - t_k, X_k), (N, M+1, 3)."""
    return -_field(case.velocity.eval, x, x.shape[1])


def el(case, x):
    """The Euler-Lagrange process v_k + sum_{j<k} grad p(1 - t_j, X_j) dt."""
    m, v = x.shape[1] - 1, drift(case, x)
    v[:, 1:] += np.cumsum(_field(case.pressure.gradient, x, m) * (1.0 / m), axis=1)
    return v


def noether_general(case, x, gen):
    """<xi(t_k, X_k), v_k> minus the running bracket sum_{j<k} <dxi_j, dv_j>."""
    times, v = _times(x), drift(case, x)
    xi = np.stack([gen.xi(t, x[:, k]) for k, t in enumerate(times)], axis=1)
    bracket = ((xi[:, 1:] - xi[:, :-1]) * (v[:, 1:] - v[:, :-1])).sum(axis=-1)
    values = (xi * v).sum(axis=-1)
    values[:, 1:] -= np.cumsum(bracket, axis=1)
    return values


def noether_rotation(case, x, include_compensator=True):
    """X^1 v^2 - X^2 v^1, plus sum_{j<k} (curl u)_3(1 - t_j, X_j) dt if
    include_compensator."""
    m, v = x.shape[1] - 1, drift(case, x)
    values = x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]
    if include_compensator:
        curl = _field(lambda t, y: case.velocity.curl(t, y)[..., 2], x, m)
        values[:, 1:] += np.cumsum(curl * (1.0 / m), axis=1)
    return values


def girsanov_rows(case, x):
    """Per-path (ln dP_u/dmu, int p dt, action) on paths x, by the left-point
    sums -sum u.dX - sum |u|^2 dt / 2, dt sum p and dt sum (|u|^2 / 2 - p)."""
    m = x.shape[1] - 1
    times, dt = _times(x), 1.0 / m
    ito = energy = pressure = action = 0.0
    for k in range(m):
        u = case.velocity.eval(1.0 - times[k], x[:, k])
        p = case.pressure.eval(1.0 - times[k], x[:, k])
        sq = (u**2).sum(axis=-1)
        ito = ito + (u * (x[:, k + 1] - x[:, k])).sum(axis=-1)
        energy = energy + sq * dt
        pressure = pressure + p
        action = action + (0.5 * sq - p)
    return np.array([-ito - 0.5 * energy, pressure * dt, action * dt])


def probe(h, x):
    """(h_k, hdot_k) of a perturbation on paths x, each broadcastable to
    (N, M+1, 3); a deterministic probe keeps a singleton path axis."""
    base, dbase, weight = h.profile(_times(x), x.transpose(1, 0, 2))
    weight = weight[:, None, :]
    return base[None, :, None] * weight, dbase[None, :, None] * weight


def analytic_table(case, x, dictionary):
    """(J, N): per path sum_k (<v_k, hdot_k> - <grad p(1 - t_k, X_k), h_k>) dt
    over k < M."""
    m = x.shape[1] - 1
    v, gp = drift(case, x), _field(case.pressure.gradient, x, m)
    rows = []
    for entry in dictionary:
        h, hdot = probe(entry, x)
        kinetic = potential = 0.0
        for j in range(3):
            kinetic = kinetic + v[:, :m, j] * hdot[:, :m, j]
            potential = potential + gp[..., j] * h[:, :m, j]
        rows.append((kinetic - potential).sum(axis=1) * (1.0 / m))
    return np.array(rows)


def fd_table(case, x, dictionary):
    """(J, N): per path central difference, at step FD_EPS, of the action of the
    path moved to X + eps h with drift v + eps hdot."""
    m = x.shape[1] - 1
    times, v = _times(x), drift(case, x)

    def action(h, hdot):
        total = 0.0
        for k in range(m):
            square = ((hdot[:, k] + v[:, k]) ** 2).sum(axis=-1)
            total = total + (0.5 * square
                             - case.pressure.eval(1.0 - times[k], h[:, k] + x[:, k]))
        return total * (1.0 / m)

    rows = []
    for entry in dictionary:
        h, hdot = probe(entry, x)
        plus, minus = (action(s * h, s * hdot) for s in (FD_EPS, -FD_EPS))
        rows.append((plus - minus) / (2.0 * FD_EPS))
    return np.array(rows)


def martingale_cells(values, x):
    """(statistic, std_error, z), each (6, M): over the paths, the mean of
    dP_k psi_j for psi = 1, X^1_k, X^2_k, X^3_k, P_k and min(|X_k|^2, CLIP_SQ_AT),
    its standard error, and their ratio, which is 0 for a zero-spread mean below
    ZERO_MEAN_TOL and otherwise an infinity of the mean's sign."""
    n, m = values.shape[0], values.shape[1] - 1
    x = x[:, :m]
    d_p = np.subtract(values[:, 1:], values[:, :-1], order="C")
    psis = [np.ones((n, m)), x[..., 0], x[..., 1], x[..., 2], values[:, :m],
            np.minimum((x**2).sum(axis=-1), CLIP_SQ_AT)]
    stat, se, z = (np.empty((len(psis), m)) for _ in range(3))
    for j, psi in enumerate(psis):
        y = d_p * psi
        stat[j] = y.mean(axis=0)
        se[j] = y.std(axis=0, ddof=1) / np.sqrt(n)
        spread = se[j] > 0.0
        z[j, spread] = stat[j, spread] / se[j, spread]
        flat = stat[j, ~spread]
        z[j, ~spread] = np.where(np.abs(flat) < ZERO_MEAN_TOL, 0.0,
                                 np.where(flat > 0, np.inf, -np.inf))
    return stat, se, z
