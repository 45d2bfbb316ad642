"""Command-line entry point: seed-reproducible experiments, JSON reports.

Every command validates its configuration before any simulation starts,
writes one machine-readable JSON document to stdout (or --out), and a short
human-readable table to stderr.  Reports embed the fully resolved
configuration and a schema version, and are bit-identical across repeat runs
with the same configuration and seed, independent of the worker count
(LAGRANGEFLOW_THREADS affects speed only).

Exit codes partition the failure classes:
    0  success
    1  acceptance suite reported a failed criterion
    2  unknown case/generator or invalid configuration
    3  symmetry gate violation (experiment ill-posed, report on stderr)
    4  capacity failure (allocation size in the message)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import catalog
from .action import DICTIONARIES, least_action_check
from .engine import CapacityError, simulate_pu, simulate_wiener, worker_count
from .girsanov import action_entropy_identity
from .martingale import martingale_test
from .noether import (UnknownGeneratorError, get_generator, el_process,
                      noether_process_general, noether_rotation_closed_form,
                      symmetry_check)

SCHEMA_VERSION = "1.1"
WIENER_SEED_OFFSET = 1      # wiener companion ensembles use seed + 1

EXIT_SUITE_FAIL = 1
EXIT_BAD_CONFIG = 2
EXIT_GATE = 3
EXIT_CAPACITY = 4


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


class UsageError(ValueError):
    """A command line the parser rejects (unknown option, bad value)."""


class _Parser(argparse.ArgumentParser):
    # argparse prints the usage and exits; report one line through main instead
    def error(self, message):
        raise UsageError(message)


@dataclass
class ExperimentConfig:
    command: str = ""
    case: Optional[str] = None
    n_paths: int = 50000
    steps: int = 200
    seed: int = 7
    alpha: float = 0.01
    generator: Optional[str] = None
    dictionary: str = "default"
    grid: int = 5
    ablate_compensator: bool = False
    only: Optional[str] = None

    def validate(self):
        if self.n_paths < 2:
            raise ConfigError("N", "must be >= 2")
        if self.steps < 2:
            raise ConfigError("M", "must be >= 2")
        if not isinstance(self.seed, int):
            raise ConfigError("seed", "must be an integer")
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha", "must lie in (0, 1)")
        if self.dictionary not in DICTIONARIES:
            raise ConfigError("dictionary", f"must be one of {sorted(DICTIONARIES)}")
        if self.grid < 2:
            raise ConfigError("grid", "must be >= 2")

    def to_dict(self) -> dict:
        return {
            "command": self.command, "case": self.case, "N": self.n_paths,
            "M": self.steps, "seed": self.seed, "alpha": self.alpha,
            "generator": self.generator,
            "dictionary": self.dictionary, "grid": self.grid,
            "ablate_compensator": self.ablate_compensator, "only": self.only,
        }


_CONFIG_KEYS = {
    "case": ("case", str),
    "N": ("n_paths", int),
    "M": ("steps", int),
    "seed": ("seed", int),
    "alpha": ("alpha", float),
    "generator": ("generator", str),
    "dictionary": ("dictionary", str),
    "grid": ("grid", int),
    "ablate_compensator": ("ablate_compensator", lambda s: s.lower() in ("1", "true", "yes")),
}


def load_config_file(path) -> dict:
    """Key-value file mirroring the experiment config: `key = value` lines,
    '#' comments; flags given on the command line take precedence."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) else "not a text file"
        raise ConfigError("config", f"cannot read {path!r}: {reason}") from None
    overrides = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sep = "=" if "=" in line else (":" if ":" in line else None)
        if sep is None:
            raise ConfigError("config", f"cannot parse line {raw.strip()!r}")
        key, value = (part.strip() for part in line.split(sep, 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(key, "unknown config key")
        attr, coerce = _CONFIG_KEYS[key]
        try:
            overrides[attr] = coerce(value)
        except ValueError:
            raise ConfigError(key, f"cannot parse value {value!r}") from None
    return overrides


def _resolve_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig(command=args.command)
    if getattr(args, "config", None):
        for attr, value in load_config_file(args.config).items():
            setattr(cfg, attr, value)
    for attr in ("case", "n_paths", "steps", "seed", "alpha", "generator",
                 "dictionary", "grid", "ablate_compensator", "only"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, attr, value)
    cfg.validate()
    try:
        worker_count()
    except ValueError:
        raise ConfigError("LAGRANGEFLOW_THREADS",
                          "must be a positive integer") from None
    return cfg


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, exit code)

def _cmd_catalog(cfg):
    rows = []
    for name in catalog.case_names():
        case = catalog.get_case(name)
        rows.append({
            "name": name,
            "is_exact_solution": case.is_exact_solution,
            "symmetries": sorted(case.symmetries),
            "velocity_bound": case.velocity.bound,
            "pressure_bound": case.pressure.bound,
        })
    return {"cases": rows}, 0


def _require_case(cfg):
    if not cfg.case:
        raise ConfigError("case", "required for this command")
    return catalog.get_case(cfg.case)


def _cmd_residual(cfg):
    case = _require_case(cfg)
    diag = catalog.probe_residuals(case, n_time=cfg.grid, n_space=cfg.grid)
    diag["is_exact_solution"] = case.is_exact_solution
    diag["residual_tol"] = case.residual_tol
    return diag, 0


def _cmd_el_test(cfg):
    case = _require_case(cfg)
    ensemble = simulate_pu(case, cfg.n_paths, cfg.steps, cfg.seed)
    process = el_process(case, ensemble)
    components = [martingale_test(process.component(i), ensemble,
                                  alpha=cfg.alpha).to_dict() for i in range(3)]
    verdict = "pass" if all(c["verdict"] == "pass" for c in components) else "fail"
    return {"case": cfg.case, "components": components, "verdict": verdict,
            "max_abs_z": max(c["max_abs_z"] for c in components)}, 0


def _cmd_action(cfg):
    case = _require_case(cfg)
    pu = simulate_pu(case, cfg.n_paths, cfg.steps, cfg.seed)
    wiener = simulate_wiener(cfg.n_paths, cfg.steps, cfg.seed + WIENER_SEED_OFFSET)
    identity = action_entropy_identity(case, pu, wiener)
    return {
        "case": cfg.case,
        "action": identity["S"].to_dict(),
        "identity": {key: (val.to_dict() if hasattr(val, "to_dict") else val)
                     for key, val in identity.items()},
    }, 0


def _cmd_least_action(cfg):
    case = _require_case(cfg)
    ensemble = simulate_pu(case, cfg.n_paths, cfg.steps, cfg.seed)
    report = least_action_check(case, ensemble,
                                dictionary=DICTIONARIES[cfg.dictionary](),
                                alpha=cfg.alpha)
    report["case"] = cfg.case
    return report, 0


def _cmd_noether(cfg):
    case = _require_case(cfg)
    if not cfg.generator:
        raise ConfigError("generator", "required for the noether command")
    gen = get_generator(cfg.generator)
    gate = symmetry_check(case, gen)
    if not gate.within_gate:
        return {"case": cfg.case, "generator": cfg.generator,
                "symmetry_check": gate.to_dict(),
                "verdict": "refused"}, EXIT_GATE
    ensemble = simulate_pu(case, cfg.n_paths, cfg.steps, cfg.seed)
    if cfg.generator == "rotation_e3":
        process = noether_rotation_closed_form(
            case, ensemble, include_compensator=not cfg.ablate_compensator)
    else:
        if cfg.ablate_compensator:
            raise ConfigError("ablate_compensator",
                              "only meaningful for rotation_e3")
        process = noether_process_general(case, ensemble, gen)
    report = martingale_test(process, ensemble, alpha=cfg.alpha)
    return {"case": cfg.case, "generator": cfg.generator,
            "symmetry_check": gate.to_dict(),
            "process": process.label,
            "martingale": report.to_dict(),
            "verdict": report.verdict}, 0


def _cmd_suite(cfg):
    from .suite import CRITERIA, SuiteScale, run_suite
    scale = SuiteScale(n_paths=cfg.n_paths, steps=cfg.steps,
                       seed=cfg.seed, alpha=cfg.alpha)
    only = None
    if cfg.only:
        try:
            only = [int(tok) for tok in cfg.only.split(",")]
        except ValueError:
            raise ConfigError("only", "expected comma-separated criterion numbers") from None
        if any(not 1 <= i <= len(CRITERIA) for i in only):
            raise ConfigError("only", f"criteria run from 1 to {len(CRITERIA)}")
    report = run_suite(scale, only=only)
    return report, 0 if report["passed"] else EXIT_SUITE_FAIL


_HANDLERS = {
    "catalog": _cmd_catalog,
    "residual": _cmd_residual,
    "el-test": _cmd_el_test,
    "action": _cmd_action,
    "least-action": _cmd_least_action,
    "noether": _cmd_noether,
    "suite": _cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lagrangeflow",
        description="Monte Carlo verification of the stochastic least-action "
                    "model for viscosity-1/2 incompressible flows")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_case=True):
        if with_case:
            p.add_argument("--case", type=str, default=None)
        p.add_argument("--N", dest="n_paths", type=int, default=None)
        p.add_argument("--M", dest="steps", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)

    add_common(sub.add_parser("catalog", help="list cases"), with_case=False)
    p = sub.add_parser("residual", help="probe-grid momentum residual")
    add_common(p)
    p.add_argument("--grid", type=int, default=None)
    p = sub.add_parser("el-test", help="Euler-Lagrange martingale test")
    add_common(p)
    p = sub.add_parser("action", help="stochastic action and entropy identity")
    add_common(p)
    p = sub.add_parser("least-action", help="criticality over a perturbation dictionary")
    add_common(p)
    p.add_argument("--dictionary", type=str, default=None,
                   choices=sorted(DICTIONARIES))
    p = sub.add_parser("noether", help="symmetry gate plus invariant-process test")
    add_common(p)
    p.add_argument("--generator", type=str, default=None)
    p.add_argument("--ablate-compensator", dest="ablate_compensator",
                   action="store_const", const=True, default=None)
    p = sub.add_parser("suite", help="run the full acceptance battery")
    add_common(p, with_case=False)
    p.add_argument("--only", type=str, default=None,
                   help="comma-separated criterion numbers (default: all)")
    return parser


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _table(results: dict, stream) -> None:
    def rows(prefix, obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                yield from rows(f"{prefix}{key}.", obj[key])
        elif isinstance(obj, (list, tuple)):
            yield prefix[:-1], f"[{len(obj)} entries]"
        else:
            yield prefix[:-1], obj
    for name, value in rows("", results):
        if isinstance(value, float):
            value = f"{value:.6g}"
        stream.write(f"  {name:<42} {value}\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        results, code = _HANDLERS[args.command](cfg)
    except (UsageError, ConfigError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_BAD_CONFIG
    except catalog.UnknownCaseError as err:
        sys.stderr.write(f"error: unknown case {err.args[0]!r}; "
                         f"known cases: {', '.join(catalog.case_names())}\n")
        return EXIT_BAD_CONFIG
    except UnknownGeneratorError as err:
        sys.stderr.write(f"error: unknown generator {err.args[0]!r}\n")
        return EXIT_BAD_CONFIG
    except CapacityError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_CAPACITY

    report = {"schema_version": SCHEMA_VERSION, "command": args.command,
              "config": cfg.to_dict(), "results": results}
    _emit(report, getattr(args, "out", None))
    sys.stderr.write(f"lagrangeflow {args.command}\n")
    if "criteria" in results:
        for row in results["criteria"]:
            status = "PASS" if row["passed"] else "FAIL"
            sys.stderr.write(f"  [{status}] criterion {row['criterion']}: "
                             f"{row['name']}\n")
        sys.stderr.write(f"  suite: {'PASS' if results['passed'] else 'FAIL'}\n")
    else:
        _table({k: v for k, v in results.items() if not isinstance(v, (list, dict))}
               or {"status": "ok"}, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
