"""Statistical test of the martingale null for discretized processes.

The martingale property is operationalized cell by cell: for every adapted
test function psi_j and every grid interval k, the increment satisfies
E[dP_k * psi_j(history_k)] = 0 under the null.  Each cell gets a z statistic
from N independent paths and the family-wise verdict applies a Bonferroni
correction over all (j, k) cells, which keeps rejections localized to the
time and the test function that caused them.

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

from .engine import PathEnsemble, ProcessSample, require_same_grid

CLIP_SQ_AT = 10.0
_ZERO_MEAN_TOL = 1e-14


def default_test_dictionary(ensemble: PathEnsemble, sample: ProcessSample) -> list:
    """Adapted test functions: 1, the three coordinates, the process itself,
    and the clipped squared radius (clipped at a fixed constant so heavy tails
    cannot destabilize the per-cell standard errors)."""
    m = sample.grid.steps
    x = ensemble.positions[:, :m, :]
    n = x.shape[0]
    return [
        ("one", np.ones((n, m))),
        ("x1", x[:, :, 0]),
        ("x2", x[:, :, 1]),
        ("x3", x[:, :, 2]),
        ("self", np.asarray(sample.values[:, :m], dtype=float)),
        ("clip_sq", np.minimum((x**2).sum(axis=-1), CLIP_SQ_AT)),
    ]


@dataclass(frozen=True)
class MartingaleTestReport:
    """Per-cell statistics and the family-wise verdict.

    statistic/std_error/z have shape (J, M_used).  Zero-variance cells carry
    z = 0 when the cell mean is numerically zero and an infinite sentinel
    otherwise (a deterministic nonzero increment is an immediate rejection).
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

    def to_dict(self, include_cells: bool = True) -> dict:
        out = {
            "j_labels": list(self.j_labels),
            "J": len(self.j_labels),
            "M_used": self.m_used,
            "alpha": self.alpha,
            "threshold": self.threshold,
            "max_abs_z": self.max_abs_z,
            "verdict": self.verdict,
            "final_cell_max_abs_z": self.final_cell_max_abs_z,
        }
        if include_cells:
            out["cells"] = {
                "statistic": self.statistic.tolist(),
                "std_error": self.std_error.tolist(),
                "z": self.z.tolist(),
            }
        return out

    def z_matrix_csv(self, path) -> None:
        """Rows k, columns j, for external plotting."""
        np.savetxt(path, self.z.T, delimiter=",",
                   header=",".join(self.j_labels), comments="")


def martingale_test(sample: ProcessSample, ensemble: PathEnsemble,
                    dictionary: list | None = None,
                    alpha: float = 0.01) -> MartingaleTestReport:
    """Bonferroni test of E[dP_k * psi_j] = 0 over all (j, k) cells.

    ``sample`` must be scalar valued; vector processes are tested one
    component at a time by the caller.  A custom dictionary is a list of
    (label, array) pairs with arrays of shape (N, M) whose column k only
    depends on path data up to index k (adaptedness is a construction-time
    contract; it cannot be detected after the fact).
    """
    if sample.is_vector:
        raise ValueError("martingale_test takes scalar samples; "
                         "test vector processes per component")
    require_same_grid(sample, ensemble)
    values = np.asarray(sample.values, dtype=float)
    n, m = values.shape[0], sample.grid.steps
    if n < 2:
        raise ValueError("martingale_test needs N >= 2 paths for a standard error")
    if dictionary is None:
        dictionary = default_test_dictionary(ensemble, sample)
    # path-major increments, so every y below is too and each cell mean sums
    # its N products in path order, whatever layout the sample has
    d_p = np.subtract(values[:, 1:], values[:, :-1], order="C")

    labels = tuple(lbl for lbl, _ in dictionary)
    stat = np.empty((len(dictionary), m))
    se = np.empty_like(stat)
    z = np.empty_like(stat)
    for j, (_, psi) in enumerate(dictionary):
        y = d_p * psi
        stat[j] = y.mean(axis=0)
        se[j] = y.std(axis=0, ddof=1) / np.sqrt(n)
        positive = se[j] > 0.0
        z[j, positive] = stat[j, positive] / se[j, positive]
        dm = stat[j, ~positive]
        z[j, ~positive] = np.where(np.abs(dm) < _ZERO_MEAN_TOL, 0.0,
                                   np.where(dm > 0, np.inf, -np.inf))

    threshold = NormalDist().inv_cdf(1.0 - alpha / (2.0 * len(dictionary) * m))
    max_abs_z = float(np.abs(z).max())
    return MartingaleTestReport(
        j_labels=labels, statistic=stat, std_error=se, z=z, m_used=m,
        alpha=alpha, threshold=threshold, max_abs_z=max_abs_z,
        verdict="pass" if max_abs_z < threshold else "fail",
        final_cell_max_abs_z=float(np.abs(z[:, -1]).max()),
    )


def covariation(a: ProcessSample, b: ProcessSample) -> ProcessSample:
    """Pathwise running quadratic covariation sum_{j<k} dA_j dB_j.

    No ensemble averaging; the result is a process sample on the same grid.
    """
    if a.is_vector or b.is_vector:
        raise ValueError("covariation takes scalar samples")
    require_same_grid(a, b)
    if a.values.shape[0] != b.values.shape[0]:
        raise ValueError("samples live on ensembles of different size")
    prods = np.diff(a.values, axis=1) * np.diff(b.values, axis=1)
    out = np.zeros_like(np.asarray(a.values, dtype=float))
    np.cumsum(prods, axis=1, out=out[:, 1:])
    return ProcessSample(a.grid, out, f"[{a.label},{b.label}]")


def richardson_bias_probe(builder, steps: int, seed: int = 0,
                          alpha: float = 0.01, resolve_z: float = 5.0) -> dict:
    """Separate discretization bias from statistical noise by grid doubling.

    ``builder(steps, seed)`` must return a (scalar ProcessSample, ensemble)
    pair built fresh at that resolution.  The probe runs at ``steps`` and at
    ``2 * steps`` with fresh seeds and compares the worst-cell drift rate
    max_{j,k} |statistic| / dt.  Genuine drift is resolution independent
    (ratio near 1); a true martingale's discretization bias halves; when no
    cell clears ``resolve_z`` standard errors the probe reports
    "noise-dominated" instead of a meaningless ratio.
    """
    reports = []
    for i, m in enumerate((steps, 2 * steps)):
        sample, ensemble = builder(m, seed + 1 + i)
        reports.append(martingale_test(sample, ensemble, alpha=alpha))
    rate = [float(np.abs(r.statistic).max() * r.m_used) for r in reports]
    resolved = min(r.max_abs_z for r in reports) >= resolve_z
    return {
        "steps": (steps, 2 * steps),
        "bias_rate_coarse": rate[0],
        "bias_rate_fine": rate[1],
        "max_abs_z_coarse": reports[0].max_abs_z,
        "max_abs_z_fine": reports[1].max_abs_z,
        "ratio": rate[0] / rate[1] if rate[1] > 0 else float("inf"),
        "flag": "resolved" if resolved else "noise-dominated",
    }
