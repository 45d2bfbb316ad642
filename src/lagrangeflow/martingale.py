"""Statistical test of the martingale null for discretized processes.

The martingale property is operationalized cell by cell: for each adapted
test function psi_j of a fixed dictionary and every grid interval k, the
increment satisfies E[dP_k * psi_j(history_k)] = 0 under the null.  Each
cell gets a z statistic from N independent paths and the family-wise
verdict applies a Bonferroni correction over all (j, k) cells, which keeps
rejections localized to the time and the test function that caused them.

All cataloged processes have bounded integrands, so their true martingales
are genuine (not just local) martingales and no localization is needed.  The
final grid interval is reported separately next to the verdict, since the
continuous-time statements live on [0, 1) and an endpoint anomaly should be
visible without drowning the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .engine import ProcessSample

CLIP_SQ_AT = 10.0
ZERO_MEAN_TOL = 1e-14      # see z_scores
# The test functions, read at the left point X_k of each cell: 1, the three
# coordinates, the process itself, and |X_k|^2 clipped at a fixed constant so
# heavy tails cannot destabilize the per-cell standard errors.
TEST_FUNCTIONS = ("one", "x1", "x2", "x3", "self", "clip_sq")


@dataclass(frozen=True)
class MartingaleTestReport:
    """Per-cell statistics and the family-wise verdict.

    statistic/std_error/z have shape (J, M_used); ``z_scores`` gives z.
    """

    j_labels: tuple
    statistic: np.ndarray
    std_error: np.ndarray
    z: np.ndarray
    m_used: int
    alpha: float
    threshold: float
    max_abs_z: float
    verdict: str
    final_cell_max_abs_z: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "j_labels": list(self.j_labels),
            "J": len(self.j_labels),
            "M_used": self.m_used,
            "alpha": self.alpha,
            "threshold": self.threshold,
            "max_abs_z": self.max_abs_z,
            "verdict": self.verdict,
            "final_cell_max_abs_z": self.final_cell_max_abs_z,
            "cells": {
                "statistic": self.statistic.tolist(),
                "std_error": self.std_error.tolist(),
                "z": self.z.tolist(),
            },
        }


def bonferroni_quantile(alpha: float, cells: int) -> float:
    """The two-sided Bonferroni threshold on |z| over a family of ``cells``
    statistics at level alpha.  An alpha so small that 1 - alpha / (2 cells)
    rounds to 1 has no finite quantile and raises ValueError."""
    p = 1.0 - alpha / (2.0 * cells)
    if p >= 1.0:
        raise ValueError(f"alpha = {alpha!r} leaves no finite Bonferroni "
                         f"quantile over {cells} cells")
    return NormalDist().inv_cdf(p)


def z_scores(stat, se) -> np.ndarray:
    """stat / se; where se is not positive, z = 0 if |stat| < ZERO_MEAN_TOL and
    else +inf if stat > 0, -inf if not: a deterministic nonzero mean rejects."""
    z = np.where(np.abs(stat) < ZERO_MEAN_TOL, 0.0, np.where(stat > 0, np.inf, -np.inf))
    np.divide(stat, se, out=z, where=se > 0.0)
    return z


def _products(d_p: np.ndarray, x: np.ndarray, values: np.ndarray):
    """d_p * psi_j for each of TEST_FUNCTIONS in turn, one (N, M) array at a
    time, each path-major as d_p is, whatever the layout of psi_j."""
    x1, x2, x3 = x[:, :, 0], x[:, :, 1], x[:, :, 2]
    yield d_p                               # psi = 1, and x * 1.0 == x exactly
    for psi in (x1, x2, x3, values):
        yield np.multiply(d_p, psi, order="C")
    # |x|^2 added in the order .sum(axis=-1) uses, with no (N, M, 3) temporary
    yield np.multiply(d_p, np.minimum(x1**2 + x2**2 + x3**2, CLIP_SQ_AT), order="C")


def martingale_test(sample: ProcessSample, alpha: float = 0.01) -> MartingaleTestReport:
    """Bonferroni test of E[dP_k * psi_j] = 0 over all (j, k) cells.

    ``sample`` must be scalar valued; vector processes are tested one
    component at a time by the caller.  The test functions psi_j are the
    fixed ``TEST_FUNCTIONS``, read at the left point k of each cell from the
    positions of the sample's ensemble and from its values, so every one is
    adapted.
    """
    if sample.is_vector:
        raise ValueError("martingale_test takes scalar samples; "
                         "test vector processes per component")
    values = np.asarray(sample.values, dtype=float)
    n, m = values.shape[0], sample.grid.steps
    if n < 2:
        raise ValueError("martingale_test needs N >= 2 paths for a standard error")
    # path-major increments and products, so each cell mean sums its N
    # products in path order, whatever layout the sample has
    d_p = np.subtract(values[:, 1:], values[:, :-1], order="C")
    stat = np.empty((len(TEST_FUNCTIONS), m))
    se = np.empty_like(stat)
    for j, y in enumerate(_products(d_p, sample.ensemble.positions[:, :m],
                                    values[:, :m])):
        stat[j] = y.mean(axis=0)
        se[j] = y.std(axis=0, ddof=1) / np.sqrt(n)
    z = z_scores(stat, se)

    threshold = bonferroni_quantile(alpha, len(TEST_FUNCTIONS) * m)
    max_abs_z = float(np.abs(z).max())
    return MartingaleTestReport(
        j_labels=TEST_FUNCTIONS, statistic=stat, std_error=se, z=z, m_used=m,
        alpha=alpha, threshold=threshold, max_abs_z=max_abs_z,
        verdict="pass" if max_abs_z < threshold else "fail",
        final_cell_max_abs_z=float(np.abs(z[:, -1]).max()),
    )


def richardson_bias_probe(builder, steps: int, seed: int = 0,
                          alpha: float = 0.01) -> dict:
    """Separate discretization bias from statistical noise by grid doubling.

    ``builder(steps, seed)`` must return a scalar ProcessSample on an
    ensemble simulated fresh at that resolution; the sample carries its
    paths.  The probe runs at ``steps`` and at ``2 * steps`` with fresh seeds
    and compares the worst-cell drift rate max_{j,k} |statistic| / dt.
    Genuine drift is resolution independent (ratio near 1); a true
    martingale's discretization bias halves; when no cell clears 5 standard
    errors the probe reports "noise-dominated" instead of a meaningless ratio.
    """
    reports = [martingale_test(builder(m, seed + 1 + i), alpha=alpha)
               for i, m in enumerate((steps, 2 * steps))]
    rate = [float(np.abs(r.statistic).max() * r.m_used) for r in reports]
    resolved = min(r.max_abs_z for r in reports) >= 5.0
    return {
        "steps": (steps, 2 * steps),
        "bias_rate_coarse": rate[0],
        "bias_rate_fine": rate[1],
        "max_abs_z_coarse": reports[0].max_abs_z,
        "max_abs_z_fine": reports[1].max_abs_z,
        "ratio": rate[0] / rate[1] if rate[1] > 0 else float("inf"),
        "flag": "resolved" if resolved else "noise-dominated",
    }
