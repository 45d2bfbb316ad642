"""The acceptance battery: nine property checks at desk scale.

Each criterion function returns a dict with a boolean "passed" and enough
detail to diagnose a failure.  Each (case, resolution, seed) ensemble is
simulated once per run and dropped after the last criterion that reads it.
The battery is deterministic given the scale (N, M, seed, alpha).
"""

from __future__ import annotations

import io
import os
import contextlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import catalog
from .action import criticality_report, criticality_tables, default_dictionary
from .engine import WIENER_SEED_OFFSET, ProcessSample, simulate_pu, simulate_wiener
from .girsanov import action_entropy_identity, log_density_pu, mean_with_error
from .martingale import martingale_test, richardson_bias_probe
from .noether import (el_process, get_generator, noether_process_general,
                      noether_rotation_closed_form, symmetry_check)


@dataclass(frozen=True)
class SuiteScale:
    n_paths: int = 50000
    steps: int = 200
    seed: int = 7
    alpha: float = 0.01

    def to_dict(self):
        return {"N": self.n_paths, "M": self.steps, "seed": self.seed,
                "alpha": self.alpha}


def _reads(scale: SuiteScale) -> dict:
    """The cache keys each criterion reads, by criterion number."""
    n, m, seed = scale.n_paths, scale.steps, scale.seed
    tg, lo, frozen = (("pu", name, n, m, seed) for name in
                      ("taylor_green", "lamb_oseen", "frozen_taylor_green"))
    return {2: [tg, lo, frozen],
            4: [("wiener", n, m, seed + WIENER_SEED_OFFSET), tg, lo],
            5: [tg], 6: [lo], 7: [lo, ("pu", "lamb_oseen", n, m // 2, seed + 71)]}


class _EnsembleCache(dict):
    """Ensembles for the criteria numbered in ``plan``, each forgotten after
    its last planned read (``_reads``); a key outside the plan is not kept."""

    def __init__(self, scale: SuiteScale, plan=()):
        super().__init__()
        self.planned = Counter(key for i in plan for key in _reads(scale).get(i, ()))

    def pu(self, case_name, n, m, seed):
        return self._serve(("pu", case_name, n, m, seed))

    def wiener(self, n, m, seed):
        return self._serve(("wiener", n, m, seed))

    def _serve(self, key):
        if key not in self:
            self[key] = (simulate_wiener(*key[1:]) if key[0] == "wiener" else
                         simulate_pu(catalog.get_case(key[1]), *key[2:]))
        self.planned[key] -= 1
        return self[key] if self.planned[key] > 0 else self.pop(key)


# ---------------------------------------------------------------------------

def criterion_1_residual_oracle(scale: SuiteScale, cache: _EnsembleCache) -> dict:
    """Exact cases have probe residual <= 1e-5 and divergence <= 1e-10; the
    frozen control has residual magnitude >= 0.5."""
    details = {}
    ok = True
    for name in ("taylor_green", "lamb_oseen"):
        diag = catalog.probe_residuals(catalog.get_case(name))
        good = (diag["max_abs_residual"] <= 1e-5
                and diag["max_abs_divergence"] <= 1e-10)
        details[name] = diag | {"ok": good}
        ok = ok and good
    diag = catalog.probe_residuals(catalog.get_case("frozen_taylor_green"))
    good = diag["max_abs_residual"] >= 0.5
    details["frozen_taylor_green"] = diag | {"ok": good}
    return {"criterion": 1, "name": "residual_oracle",
            "passed": ok and good, "details": details}


def _el_builder(case_name, n_paths, component):
    case = catalog.get_case(case_name)

    def build(steps, seed):
        ens = simulate_pu(case, n_paths, steps, seed)
        return el_process(case, ens).component(component), ens

    return build


def criterion_2_el_dichotomy(scale: SuiteScale, cache: _EnsembleCache) -> dict:
    """Euler-Lagrange martingale test passes per component for the exact
    solutions, fails with max |z| >= 10 for the frozen control, and the
    Richardson probe on the passing cases is noise-dominated or halving."""
    details = {}
    ok = True
    for name in ("taylor_green", "lamb_oseen"):
        ens = cache.pu(name, scale.n_paths, scale.steps, scale.seed)
        proc = el_process(catalog.get_case(name), ens)
        comp_reports = [martingale_test(proc.component(i), ens, alpha=scale.alpha)
                        for i in range(3)]
        del ens, proc   # unreachable while the probe and the next case simulate
        passed = all(r.passed for r in comp_reports)
        probe = richardson_bias_probe(
            _el_builder(name, scale.n_paths, 0), scale.steps // 2,
            seed=scale.seed + 100, alpha=scale.alpha)
        probe_ok = (probe["flag"] == "noise-dominated"
                    or 1.4 <= probe["ratio"] <= 3.0)
        details[name] = {
            "max_abs_z": [r.max_abs_z for r in comp_reports],
            "threshold": comp_reports[0].threshold,
            "verdicts": [r.verdict for r in comp_reports],
            "richardson": probe,
            "ok": passed and probe_ok,
        }
        ok = ok and passed and probe_ok
    ens = cache.pu("frozen_taylor_green", scale.n_paths, scale.steps, scale.seed)
    proc = el_process(catalog.get_case("frozen_taylor_green"), ens)
    reports = [martingale_test(proc.component(i), ens, alpha=scale.alpha)
               for i in range(3)]
    max_z = max(r.max_abs_z for r in reports)
    frozen_ok = any(not r.passed for r in reports) and max_z >= 10.0
    details["frozen_taylor_green"] = {
        "max_abs_z": max_z,
        "verdicts": [r.verdict for r in reports],
        "ok": frozen_ok,
    }
    return {"criterion": 2, "name": "el_dichotomy",
            "passed": ok and frozen_ok, "details": details}


def criterion_3_least_action(scale: SuiteScale, cache: _EnsembleCache) -> dict:
    """Criticality dichotomy plus analytic-vs-FD derivative agreement.

    Each case's paths are simulated piece by piece and go straight into both
    derivative estimators; no ensemble is kept.
    """
    details = {}
    ok = True
    dictionary = default_dictionary()
    for name, want_critical in (("taylor_green", True), ("lamb_oseen", True),
                                ("frozen_taylor_green", False)):
        analytic, fd_table = criticality_tables(
            catalog.get_case(name), scale.n_paths, scale.steps, scale.seed,
            dictionary, eps=1e-2)
        report = criticality_report(dictionary, analytic, alpha=scale.alpha)
        verdict_ok = (report["verdict"] == "critical") == want_critical
        if not want_critical:
            verdict_ok = verdict_ok and report["max_abs_z"] >= 5.0
        agreement = []
        agree_ok = True
        fd = [mean_with_error(row) for row in fd_table]
        for h, a, f in zip(dictionary, report["entries"], fd):
            tol = 3.0 * float(np.hypot(a["std_error"], f.std_error)) + 1e-4
            good = abs(a["estimate"] - f.value) <= tol
            agreement.append({"h": h.label, "analytic": a["estimate"],
                              "fd": f.value, "tol": tol, "ok": good})
            agree_ok = agree_ok and good
        details[name] = {"verdict": report["verdict"],
                         "max_abs_z": report["max_abs_z"],
                         "threshold": report["threshold"],
                         "entries": report["entries"],
                         "fd_agreement": agreement,
                         "ok": verdict_ok and agree_ok}
        ok = ok and verdict_ok and agree_ok
    return {"criterion": 3, "name": "least_action_dichotomy",
            "passed": ok, "details": details}


def criterion_4_action_entropy(scale: SuiteScale, cache: _EnsembleCache) -> dict:
    """Exact identity for the trivial case; budgeted identity and density
    normalization for the exact solutions."""
    details = {}
    zero = catalog.get_case("zero_flow")
    n_small = min(scale.n_paths, 4000)
    rep = action_entropy_identity(
        zero, simulate_pu(zero, n_small, scale.steps, scale.seed),
        simulate_wiener(n_small, scale.steps, scale.seed + WIENER_SEED_OFFSET))
    zero_ok = (abs(rep["S"].value + 0.5) <= 1e-12
               and abs(rep["H"].value) <= 1e-12
               and abs(rep["ln_Zp"].value - 0.5) <= 1e-12
               and abs(rep["residual_minus"].value) <= 1e-12
               and abs(rep["residual_plus"].value + 1.0) <= 1e-12)
    details["zero_flow"] = {
        "S": rep["S"].value, "H": rep["H"].value, "ln_Zp": rep["ln_Zp"].value,
        "residual_minus": rep["residual_minus"].value,
        "residual_plus": rep["residual_plus"].value, "ok": zero_ok,
    }
    ok = zero_ok
    wiener = cache.wiener(scale.n_paths, scale.steps, scale.seed + WIENER_SEED_OFFSET)
    for name in ("taylor_green", "lamb_oseen"):
        case = catalog.get_case(name)
        rep = action_entropy_identity(
            case, cache.pu(name, scale.n_paths, scale.steps, scale.seed), wiener)
        norm = mean_with_error(np.exp(log_density_pu(case, wiener)))
        norm_ok = abs(norm.value - 1.0) <= 3.0 * norm.std_error
        case_ok = rep["identity_holds"] and norm_ok
        details[name] = {
            "S": rep["S"].to_dict(), "H": rep["H"].to_dict(),
            "ln_Zp": rep["ln_Zp"].to_dict(),
            "residual_minus": rep["residual_minus"].to_dict(),
            "identity_budget": rep["identity_budget"],
            "normalization": norm.to_dict(),
            "ok": case_ok,
        }
        ok = ok and case_ok
    return {"criterion": 4, "name": "action_entropy_identity",
            "passed": ok, "details": details}


def criterion_5_translation_noether(scale: SuiteScale, cache: _EnsembleCache) -> dict:
    """The e3 momentum is a martingale for the z-independent solution, and
    the symmetry gate refuses the axis-swapped variant with exit code 3."""
    case = catalog.get_case("taylor_green")
    gen = get_generator("translation_e3")
    gate = symmetry_check(case, gen)
    ens = cache.pu("taylor_green", scale.n_paths, scale.steps, scale.seed)
    momentum = noether_process_general(case, ens, gen)
    u, x = case.velocity.eval, ens.positions      # v_3 one time slice at a time
    consistent = all(np.array_equal(momentum.values[:, k], -u(1.0 - t, x[:, k])[:, 2])
                     for k, t in enumerate(ens.grid.times))
    report = martingale_test(momentum, ens, alpha=scale.alpha)

    from .cli import main as cli_main
    argv = ["noether", "--case", "taylor_green_rotated",
            "--generator", "translation_e3",
            "--N", "64", "--M", "4", "--seed", str(scale.seed)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    gate_ok = code == 3
    passed = (gate.within_gate and consistent and report.passed and gate_ok)
    return {"criterion": 5, "name": "translation_noether", "passed": passed,
            "details": {
                "gate": gate.to_dict(),
                "momentum_equals_v3": bool(consistent),
                "max_abs_z": report.max_abs_z,
                "verdict": report.verdict,
                "rotated_variant_exit_code": code,
            }}


def criterion_6_rotation_noether(scale: SuiteScale, cache: _EnsembleCache) -> dict:
    """Compensated kinetic momentum is a martingale for the vortex; the
    ablation without the curl compensator fails loudly."""
    case = catalog.get_case("lamb_oseen")
    gate = symmetry_check(case, get_generator("rotation_e3"))
    ens = cache.pu("lamb_oseen", scale.n_paths, scale.steps, scale.seed)
    full = martingale_test(noether_rotation_closed_form(case, ens), ens,
                           alpha=scale.alpha)
    ablated = martingale_test(
        noether_rotation_closed_form(case, ens, include_compensator=False),
        ens, alpha=scale.alpha)
    passed = (gate.within_gate and full.passed
              and not ablated.passed and ablated.max_abs_z >= 5.0)
    return {"criterion": 6, "name": "rotation_noether", "passed": passed,
            "details": {
                "gate": gate.to_dict(),
                "with_compensator": {"verdict": full.verdict,
                                     "max_abs_z": full.max_abs_z},
                "ablated": {"verdict": ablated.verdict,
                            "max_abs_z": ablated.max_abs_z},
            }}


def _bracket_gaps(scale: SuiteScale, cache: _EnsembleCache, steps: int, seed: int):
    case = catalog.get_case("lamb_oseen")
    ens = cache.pu("lamb_oseen", scale.n_paths, steps, seed)
    gen = noether_process_general(case, ens, get_generator("rotation_e3"))
    closed = noether_rotation_closed_form(case, ens)
    diff = gen.values - closed.values
    return {
        "mean_abs": float(np.abs(diff).mean()),
        "mean_square": float((diff**2).mean()),
        "sup_of_mean": float(np.abs(diff.mean(axis=0)).max()),
    }


def criterion_7_bracket_convergence(scale: SuiteScale, cache: _EnsembleCache) -> dict:
    """Empirical bracket vs analytic compensator: the mean absolute gap obeys
    the 5/M envelope, and the mean-square gap (the estimator's noise energy,
    the part with a definite refinement rate) halves from M/2 to M."""
    fine = _bracket_gaps(scale, cache, scale.steps, scale.seed)
    coarse = _bracket_gaps(scale, cache, scale.steps // 2, scale.seed + 71)
    envelope_ok = fine["mean_abs"] <= 5.0 / scale.steps
    ratio = coarse["mean_square"] / fine["mean_square"]
    ratio_ok = 1.6 <= ratio <= 2.6
    return {"criterion": 7, "name": "bracket_convergence",
            "passed": envelope_ok and ratio_ok,
            "details": {
                "M_fine": scale.steps, "M_coarse": scale.steps // 2,
                "fine": fine, "coarse": coarse,
                "mean_abs_envelope": 5.0 / scale.steps,
                "mean_square_ratio": ratio,
                "mean_abs_ratio": coarse["mean_abs"] / fine["mean_abs"],
            }}


def criterion_8_statistical_soundness(scale: SuiteScale, cache: _EnsembleCache) -> dict:
    """Size and power of the martingale test over repeated seeded runs."""
    n, m, runs = 2000, 50, 100
    false_rejections = 0
    drift_rejections = 0
    for i in range(runs):
        ens = simulate_wiener(n, m, scale.seed + 1000 + i)
        brownian = ProcessSample(ens.grid, ens.positions[:, :, 0], "brownian_1")
        if not martingale_test(brownian, ens, alpha=scale.alpha).passed:
            false_rejections += 1
        drift = ProcessSample(ens.grid,
                              np.broadcast_to(ens.grid.times, (n, m + 1)),
                              "unit_drift")
        if not martingale_test(drift, ens, alpha=scale.alpha).passed:
            drift_rejections += 1
    passed = false_rejections <= int(0.05 * runs) and drift_rejections >= runs - 1
    return {"criterion": 8, "name": "statistical_soundness", "passed": passed,
            "details": {"runs": runs, "false_rejections": false_rejections,
                        "drift_rejections": drift_rejections,
                        "null_scale": {"N": n, "M": m}}}


def criterion_9_reproducibility(scale: SuiteScale, cache: _EnsembleCache) -> dict:
    """Every command's JSON is bit-identical across repeats and across
    1-vs-8 worker configurations (8 is capped at the usable cores)."""
    from .cli import main as cli_main

    base = ["--N", "2000", "--M", "50", "--seed", str(scale.seed)]
    commands = [
        ["catalog"],
        ["residual", "--case", "taylor_green"],
        ["el-test", "--case", "taylor_green"] + base,
        ["action", "--case", "taylor_green"] + base,
        ["least-action", "--case", "taylor_green"] + base,
        ["noether", "--case", "lamb_oseen", "--generator", "rotation_e3"] + base,
    ]

    def run(argv, threads):
        old = os.environ.get("LAGRANGEFLOW_THREADS")
        os.environ["LAGRANGEFLOW_THREADS"] = str(threads)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv)
            return code, out.getvalue()
        finally:
            if old is None:
                del os.environ["LAGRANGEFLOW_THREADS"]
            else:
                os.environ["LAGRANGEFLOW_THREADS"] = old

    details = {}
    ok = True
    for argv in commands:
        outputs = [run(argv, threads) for threads in (1, 1, 8, 8)]
        codes = {c for c, _ in outputs}
        identical = len({text for _, text in outputs}) == 1 and codes == {0}
        details[argv[0]] = {"identical": identical}
        ok = ok and identical
    return {"criterion": 9, "name": "reproducibility", "passed": ok,
            "details": details}


CRITERIA = (
    criterion_1_residual_oracle,
    criterion_2_el_dichotomy,
    criterion_3_least_action,
    criterion_4_action_entropy,
    criterion_5_translation_noether,
    criterion_6_rotation_noether,
    criterion_7_bracket_convergence,
    criterion_8_statistical_soundness,
    criterion_9_reproducibility,
)


def run_criterion(index: int, scale: SuiteScale,
                  cache: _EnsembleCache | None = None) -> dict:
    """Run one criterion (1-based index) at the given scale."""
    if cache is None:
        cache = _EnsembleCache(scale, [index])
    return CRITERIA[index - 1](scale, cache)


def run_suite(scale: SuiteScale | None = None, only=None) -> dict:
    """Run the battery; ``only`` restricts to a list of 1-based indices."""
    scale = scale or SuiteScale()
    selected = sorted(set(only)) if only else range(1, len(CRITERIA) + 1)
    cache = _EnsembleCache(scale, selected)
    results = [CRITERIA[i - 1](scale, cache) for i in selected]
    return {"scale": scale.to_dict(),
            "criteria": results,
            "passed": all(r["passed"] for r in results)}
