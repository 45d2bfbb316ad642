"""The acceptance battery: nine property checks at desk scale.

Each criterion takes the scale and an ``ensembles`` source, and returns a
dict with a boolean "passed" and enough detail to diagnose a failure.
``ensembles(name)`` simulates the named case at the suite's N, M and seed at
every call, so each ensemble goes when the criterion that read it returns:
no ensemble is kept between criteria, and at desk scale the battery peaks at
813 MB.  The battery is deterministic given the scale (N, M, seed, alpha).
"""

from __future__ import annotations

import io
import os
import contextlib
from dataclasses import dataclass

import numpy as np

from . import catalog
from .action import criticality_report, criticality_tables, default_dictionary
from .engine import WIENER_SEED_OFFSET, ProcessSample, simulate_pu, simulate_wiener
from .girsanov import action_entropy_identity, log_density_pu, mean_with_error
from .martingale import (TEST_FUNCTIONS, bonferroni_quantile, martingale_test,
                         richardson_bias_probe)
from .noether import (el_process, el_reports, get_generator, noether_process_general,
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


# Criterion 8 tests NULL_RUNS Wiener ensembles of NULL_SCALE = (N, M), the i-th
# at seed + NULL_SEED_OFFSET + i: the battery's largest seeds
NULL_SCALE, NULL_RUNS, NULL_SEED_OFFSET = (2000, 50), 100, 1000
MAX_SEED_OFFSET = NULL_SEED_OFFSET + NULL_RUNS - 1


def largest_family(steps: int) -> int:
    """Cells in the battery's largest Bonferroni family at M = steps: 6 M for
    the martingale tests, at least criterion 8's 6 * 50 (criterion 3 has 9)."""
    return len(TEST_FUNCTIONS) * max(steps, NULL_SCALE[1])


def least_scale(selected) -> dict:
    """The least N and M every selected criterion runs at: criteria 2-7
    simulate and take standard errors over paths, so N >= 2 and M >= 2, and
    criteria 2 and 7 also simulate at M // 2, so M >= 4."""
    simulating = any(2 <= i <= 7 for i in selected)
    return {"N": 2 if simulating else 1,
            "M": 4 if {2, 7} & set(selected) else 2 if simulating else 1}


def _check_scale(scale: SuiteScale, selected) -> None:
    """Refuse a scale a criterion would fail on midway: a seed the criteria
    offset past 2**64, an alpha with no finite Bonferroni quantile, or an N
    or M below ``least_scale(selected)``."""
    if not 0 <= scale.seed < 2**64 - MAX_SEED_OFFSET:
        raise ValueError(f"seed must lie in [0, 2**64 - {MAX_SEED_OFFSET})")
    bonferroni_quantile(scale.alpha, largest_family(scale.steps))
    least = least_scale(selected)
    for key, value in (("N", scale.n_paths), ("M", scale.steps)):
        if value < least[key]:
            raise ValueError(f"{key} must be >= {least[key]} for the selected criteria")


def suite_ensembles(scale: SuiteScale):
    """The criteria's source: name -> that case's ensemble at the scale's N,
    M and seed, simulated at each call and held by its caller alone."""
    return lambda name: simulate_pu(catalog.get_case(name), scale.n_paths,
                                    scale.steps, scale.seed)


def _run_cli(argv, threads=None):
    """(exit code, stdout) of ``cli.main(argv)`` in this process, with stderr
    discarded and, when threads is given, LAGRANGEFLOW_THREADS set to it for
    the run; the variable is left as it was found, also when the run raises."""
    from .cli import main
    old = os.environ.get("LAGRANGEFLOW_THREADS")
    if threads is not None:
        os.environ["LAGRANGEFLOW_THREADS"] = str(threads)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()
    finally:
        if old is None:
            os.environ.pop("LAGRANGEFLOW_THREADS", None)
        else:
            os.environ["LAGRANGEFLOW_THREADS"] = old


# ---------------------------------------------------------------------------

def criterion_1_residual_oracle(scale: SuiteScale, ensembles) -> dict:
    """Exact cases have probe residual <= 1e-5 and divergence <= 1e-10; the
    frozen control has residual magnitude >= 0.5."""
    details = {}
    for name, exact in (("taylor_green", True), ("lamb_oseen", True),
                        ("frozen_taylor_green", False)):
        diag = catalog.probe_residuals(catalog.get_case(name))
        good = (diag["max_abs_residual"] <= 1e-5 and diag["max_abs_divergence"] <= 1e-10
                if exact else diag["max_abs_residual"] >= 0.5)
        details[name] = diag | {"ok": good}
    return {"criterion": 1, "name": "residual_oracle",
            "passed": all(d["ok"] for d in details.values()), "details": details}


def criterion_2_el_dichotomy(scale: SuiteScale, ensembles) -> dict:
    """Euler-Lagrange martingale test passes per component for the exact
    solutions, fails with max |z| >= 10 for the frozen control, and the
    Richardson probe on the passing cases is noise-dominated or halving."""
    details = {}
    for name in ("taylor_green", "lamb_oseen"):
        # no ensemble or EL process outlives el_reports into the probe
        comp_reports = el_reports(ensembles(name), scale.alpha)
        passed = all(r.passed for r in comp_reports)
        case = catalog.get_case(name)
        probe = richardson_bias_probe(
            lambda steps, seed: el_process(simulate_pu(
                case, scale.n_paths, steps, seed)).component(0),
            scale.steps // 2, seed=scale.seed + 100, alpha=scale.alpha)
        probe_ok = (probe["flag"] == "noise-dominated"
                    or 1.4 <= probe["ratio"] <= 3.0)
        details[name] = {
            "max_abs_z": [r.max_abs_z for r in comp_reports],
            "threshold": comp_reports[0].threshold,
            "verdicts": [r.verdict for r in comp_reports],
            "richardson": probe,
            "ok": passed and probe_ok,
        }
    reports = el_reports(ensembles("frozen_taylor_green"), scale.alpha)
    max_z = max(r.max_abs_z for r in reports)
    details["frozen_taylor_green"] = {
        "max_abs_z": max_z,
        "verdicts": [r.verdict for r in reports],
        "ok": any(not r.passed for r in reports) and max_z >= 10.0,
    }
    return {"criterion": 2, "name": "el_dichotomy",
            "passed": all(d["ok"] for d in details.values()), "details": details}


def criterion_3_least_action(scale: SuiteScale, ensembles) -> dict:
    """Criticality dichotomy plus analytic-vs-FD derivative agreement.

    Each case's paths are simulated piece by piece and go straight into both
    derivative estimators; no ensemble is kept.
    """
    details = {}
    dictionary = default_dictionary()
    for name, want_critical in (("taylor_green", True), ("lamb_oseen", True),
                                ("frozen_taylor_green", False)):
        analytic, fd_table = criticality_tables(
            catalog.get_case(name), scale.n_paths, scale.steps, scale.seed,
            dictionary)
        report = criticality_report(dictionary, analytic, alpha=scale.alpha)
        verdict_ok = (report["verdict"] == "critical") == want_critical
        if not want_critical:
            verdict_ok = verdict_ok and report["max_abs_z"] >= 5.0
        agreement = []
        fd = [mean_with_error(row) for row in fd_table]
        for h, a, f in zip(dictionary, report["entries"], fd):
            tol = 3.0 * float(np.hypot(a["std_error"], f.std_error)) + 1e-4
            good = abs(a["estimate"] - f.value) <= tol
            agreement.append({"h": h.label, "analytic": a["estimate"],
                              "fd": f.value, "tol": tol, "ok": good})
        details[name] = {"verdict": report["verdict"],
                         "max_abs_z": report["max_abs_z"],
                         "threshold": report["threshold"],
                         "entries": report["entries"],
                         "fd_agreement": agreement,
                         "ok": verdict_ok and all(row["ok"] for row in agreement)}
    return {"criterion": 3, "name": "least_action_dichotomy",
            "passed": all(d["ok"] for d in details.values()), "details": details}


def criterion_4_action_entropy(scale: SuiteScale, ensembles) -> dict:
    """Exact identity for the trivial case; budgeted identity and density
    normalization for the exact solutions, each functional walking its paths."""
    details = {}
    rep = action_entropy_identity(catalog.get_case("zero_flow"),
                                  min(scale.n_paths, 4000), scale.steps, scale.seed)
    exact = {"S": -0.5, "H": 0.0, "ln_Zp": 0.5, "residual_minus": 0.0,
             "residual_plus": -1.0}
    values = {key: rep[key].value for key in exact}
    details["zero_flow"] = values | {"ok": all(abs(values[key] - want) <= 1e-12
                                               for key, want in exact.items())}
    for name in ("taylor_green", "lamb_oseen"):
        case = catalog.get_case(name)
        rep = action_entropy_identity(case, scale.n_paths, scale.steps, scale.seed)
        norm = mean_with_error(np.exp(log_density_pu(
            case, scale.n_paths, scale.steps, scale.seed + WIENER_SEED_OFFSET)))
        norm_ok = abs(norm.value - 1.0) <= 3.0 * norm.std_error
        details[name] = {
            "S": rep["S"].to_dict(), "H": rep["H"].to_dict(),
            "ln_Zp": rep["ln_Zp"].to_dict(),
            "residual_minus": rep["residual_minus"].to_dict(),
            "identity_budget": rep["identity_budget"],
            "normalization": norm.to_dict(),
            "ok": rep["identity_holds"] and norm_ok,
        }
    return {"criterion": 4, "name": "action_entropy_identity",
            "passed": all(d["ok"] for d in details.values()), "details": details}


def criterion_5_translation_noether(scale: SuiteScale, ensembles) -> dict:
    """The e3 momentum is a martingale for the z-independent solution, and
    the symmetry gate refuses the axis-swapped variant with exit code 3."""
    case = catalog.get_case("taylor_green")
    gen = get_generator("translation_e3")
    gate = symmetry_check(case, gen)
    ens = ensembles("taylor_green")
    momentum = noether_process_general(ens, gen)
    u, x = case.velocity.eval, ens.positions      # v_3 one time slice at a time
    consistent = all(np.array_equal(momentum.values[:, k], -u(1.0 - t, x[:, k])[:, 2])
                     for k, t in enumerate(ens.grid.times))
    report = martingale_test(momentum, alpha=scale.alpha)

    code, _ = _run_cli(["noether", "--case", "taylor_green_rotated",
                        "--generator", "translation_e3",
                        "--N", "64", "--M", "4", "--seed", str(scale.seed)])
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


def criterion_6_rotation_noether(scale: SuiteScale, ensembles) -> dict:
    """Compensated kinetic momentum is a martingale for the vortex; the
    ablation without the curl compensator fails loudly."""
    gate = symmetry_check(catalog.get_case("lamb_oseen"), get_generator("rotation_e3"))
    ens = ensembles("lamb_oseen")
    full = martingale_test(noether_rotation_closed_form(ens), alpha=scale.alpha)
    ablated = martingale_test(
        noether_rotation_closed_form(ens, include_compensator=False), alpha=scale.alpha)
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


def _bracket_gaps(ens):
    gen = noether_process_general(ens, get_generator("rotation_e3"))
    closed = noether_rotation_closed_form(ens)
    diff = gen.values - closed.values
    return {
        "mean_abs": float(np.abs(diff).mean()),
        "mean_square": float((diff**2).mean()),
        "sup_of_mean": float(np.abs(diff.mean(axis=0)).max()),
    }


def criterion_7_bracket_convergence(scale: SuiteScale, ensembles) -> dict:
    """Empirical bracket vs analytic compensator: the mean absolute gap obeys
    the 5/M envelope, and the mean-square gap (the estimator's noise energy,
    the part with a definite refinement rate) halves from M/2 to M."""
    fine = _bracket_gaps(ensembles("lamb_oseen"))
    coarse = _bracket_gaps(simulate_pu(catalog.get_case("lamb_oseen"), scale.n_paths,
                                       scale.steps // 2, scale.seed + 71))
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


def criterion_8_statistical_soundness(scale: SuiteScale, ensembles) -> dict:
    """Size and power of the martingale test over repeated seeded runs."""
    (n, m), runs = NULL_SCALE, NULL_RUNS
    false_rejections = 0
    drift_rejections = 0
    for i in range(runs):
        ens = simulate_wiener(n, m, scale.seed + NULL_SEED_OFFSET + i)
        brownian = ProcessSample(ens, ens.positions[:, :, 0], "brownian_1")
        if not martingale_test(brownian, alpha=scale.alpha).passed:
            false_rejections += 1
        drift = ProcessSample(ens, np.broadcast_to(ens.grid.times, (n, m + 1)),
                              "unit_drift")
        if not martingale_test(drift, alpha=scale.alpha).passed:
            drift_rejections += 1
    passed = false_rejections <= int(0.05 * runs) and drift_rejections >= runs - 1
    return {"criterion": 8, "name": "statistical_soundness", "passed": passed,
            "details": {"runs": runs, "false_rejections": false_rejections,
                        "drift_rejections": drift_rejections,
                        "null_scale": {"N": n, "M": m}}}


def criterion_9_reproducibility(scale: SuiteScale, ensembles) -> dict:
    """Every command's JSON is bit-identical across repeats and across
    1-vs-8 worker configurations (8 is capped at the usable cores)."""
    base = ["--N", "2000", "--M", "50", "--seed", str(scale.seed)]
    commands = [
        ["catalog"],
        ["residual", "--case", "taylor_green"],
        ["el-test", "--case", "taylor_green"] + base,
        ["action", "--case", "taylor_green"] + base,
        ["least-action", "--case", "taylor_green"] + base,
        ["noether", "--case", "lamb_oseen", "--generator", "rotation_e3"] + base,
    ]

    details = {}
    for argv in commands:
        outputs = [_run_cli(argv, threads) for threads in (1, 1, 8, 8)]
        codes = {c for c, _ in outputs}
        identical = len({text for _, text in outputs}) == 1 and codes == {0}
        details[argv[0]] = {"identical": identical}
    return {"criterion": 9, "name": "reproducibility",
            "passed": all(d["identical"] for d in details.values()), "details": details}


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


def _check_indices(indices) -> None:
    if any(not 1 <= i <= len(CRITERIA) for i in indices):
        raise ValueError(f"criteria run from 1 to {len(CRITERIA)}")


def run_criterion(index: int, scale: SuiteScale) -> dict:
    """Run one criterion (1-based index) at the given scale."""
    _check_indices([index])
    _check_scale(scale, [index])
    return CRITERIA[index - 1](scale, suite_ensembles(scale))


def run_suite(scale: SuiteScale | None = None, only=None) -> dict:
    """Run the battery; ``only`` restricts to a list of 1-based indices."""
    scale = scale or SuiteScale()
    selected = sorted(set(only)) if only else range(1, len(CRITERIA) + 1)
    _check_indices(selected)
    _check_scale(scale, selected)
    ensembles = suite_ensembles(scale)
    results = [CRITERIA[i - 1](scale, ensembles) for i in selected]
    return {"scale": scale.to_dict(),
            "criteria": results,
            "passed": all(r["passed"] for r in results)}
