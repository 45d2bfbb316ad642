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
    4  allocation failure (the message names the size)
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple, Optional

from . import catalog
from .action import DICTIONARIES, least_action_check
from .engine import (WIENER_SEED_OFFSET, simulate_pu, simulate_wiener,
                     worker_count)
from .girsanov import action_entropy_identity
from .martingale import TEST_FUNCTIONS, bonferroni_quantile, martingale_test
from .noether import (UnknownGeneratorError, get_generator, el_reports,
                      noether_process_general, noether_rotation_closed_form,
                      symmetry_check)
from .suite import MAX_SEED_OFFSET, largest_family

SCHEMA_VERSION = "1.1"

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


def _boolean(text: str) -> bool:
    """1/0, true/false or yes/no, in any case; anything else is refused."""
    word = text.lower()
    if word not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(text)
    return word in ("1", "true", "yes")


class _Option(NamedTuple):
    parse: Callable[[str], object]
    default: object
    commands: tuple
    choices: Optional[list] = None


_ALL = ("catalog", "residual", "el-test", "action", "least-action", "noether",
        "suite")
_WITH_CASE = _ALL[1:-1]
_SIMULATING = _ALL[2:]

# Every option once, keyed as in the echoed config.  Each row gives the parser
# of its value, its default, the commands that take it as --<key> and, for a
# closed set, the values argparse lists.  Config files may set every key but
# `only`; flags override file values.
_OPTIONS = {
    "case": _Option(str, None, _WITH_CASE),
    "N": _Option(int, 50000, _SIMULATING),
    "M": _Option(int, 200, _SIMULATING),
    "seed": _Option(int, 7, _SIMULATING),
    "alpha": _Option(float, 0.01, ("el-test", "least-action", "noether", "suite")),
    "generator": _Option(str, None, ("noether",)),
    "dictionary": _Option(str, "default", ("least-action",), sorted(DICTIONARIES)),
    "grid": _Option(int, 5, ("residual",)),
    "ablate_compensator": _Option(_boolean, False, ("noether",)),
    "only": _Option(str, None, ("suite",)),
}


def _validate(cfg: dict) -> None:
    for key, ok, message in (
            ("N", cfg["N"] >= 2, "must be >= 2"),
            ("M", cfg["M"] >= 2, "must be >= 2"),
            ("seed", cfg["seed"] >= 0, "must be >= 0"),
            ("seed", cfg["seed"] < 2**64, "must be < 2**64"),
            ("alpha", 0.0 < cfg["alpha"] < 1.0, "must lie in (0, 1)"),
            ("dictionary", cfg["dictionary"] in DICTIONARIES,
             f"must be one of {sorted(DICTIONARIES)}"),
            ("grid", cfg["grid"] >= 2, "must be >= 2")):
        if not ok:
            raise ConfigError(key, message)


def _check_reach(command: str, cfg: dict) -> None:
    """Refuse what a command would fail on after its work had started: a seed
    it offsets past 2**64, or an alpha with no finite Bonferroni quantile
    over the largest family of cells it tests."""
    offset, cells = 0, len(TEST_FUNCTIONS) * cfg["M"]
    if command == "action":             # no Bonferroni family
        offset, cells = WIENER_SEED_OFFSET, None
    elif command == "least-action":
        cells = len(DICTIONARIES[cfg["dictionary"]]())
    elif command == "suite":
        offset, cells = MAX_SEED_OFFSET, largest_family(cfg["M"])
    if cfg["seed"] >= 2**64 - offset:
        raise ConfigError("seed", f"must be < 2**64 - {offset}: {command} "
                                  f"simulates at seeds up to seed + {offset}")
    if cells:
        try:
            bonferroni_quantile(cfg["alpha"], cells)
        except ValueError:
            raise ConfigError("alpha", f"too small for a Bonferroni family of "
                                       f"{cells} cells") from None


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
        if key not in _OPTIONS or key == "only":
            raise ConfigError(key, "unknown config key")
        try:
            overrides[key] = _OPTIONS[key].parse(value)
        except ValueError:
            raise ConfigError(key, f"cannot parse value {value!r}") from None
    return overrides


def _check_writable(path: str) -> None:
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ConfigError("out", f"cannot write {path!r}")


def _resolve_config(args) -> dict:
    cfg = {key: opt.default for key, opt in _OPTIONS.items()}
    if args.config:
        cfg.update(load_config_file(args.config))
    cfg.update((key, value) for key in _OPTIONS
               if (value := getattr(args, key, None)) is not None)
    _validate(cfg)
    if args.command in _SIMULATING:
        _check_reach(args.command, cfg)
    if args.out:
        _check_writable(args.out)
    try:
        worker_count()
    except ValueError:
        raise ConfigError("LAGRANGEFLOW_THREADS",
                          "must be a positive integer") from None
    return cfg


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, exit code)

def _cmd_catalog(cfg):
    cases = map(catalog.get_case, catalog.case_names())
    return {"cases": [{"name": case.name,
                       "is_exact_solution": case.is_exact_solution,
                       "symmetries": sorted(case.symmetries),
                       "velocity_bound": case.velocity.bound,
                       "pressure_bound": case.pressure.bound}
                      for case in cases]}, 0


def _require_case(cfg):
    if not cfg["case"]:
        raise ConfigError("case", "required for this command")
    return catalog.get_case(cfg["case"])


def _cmd_residual(cfg):
    case = _require_case(cfg)
    diag = catalog.probe_residuals(case, n_time=cfg["grid"], n_space=cfg["grid"])
    diag["is_exact_solution"] = case.is_exact_solution
    diag["residual_tol"] = case.residual_tol
    return diag, 0


def _cmd_el_test(cfg):
    case = _require_case(cfg)
    ensemble = simulate_pu(case, cfg["N"], cfg["M"], cfg["seed"])
    components = [r.to_dict() for r in el_reports(case, ensemble, cfg["alpha"])]
    verdict = "pass" if all(c["verdict"] == "pass" for c in components) else "fail"
    return {"case": cfg["case"], "components": components, "verdict": verdict,
            "max_abs_z": max(c["max_abs_z"] for c in components)}, 0


def _cmd_action(cfg):
    case = _require_case(cfg)
    pu = simulate_pu(case, cfg["N"], cfg["M"], cfg["seed"])
    wiener = simulate_wiener(cfg["N"], cfg["M"], cfg["seed"] + WIENER_SEED_OFFSET)
    identity = action_entropy_identity(case, pu, wiener)
    return {
        "case": cfg["case"],
        "action": identity["S"].to_dict(),
        "identity": {key: (val.to_dict() if hasattr(val, "to_dict") else val)
                     for key, val in identity.items()},
    }, 0


def _cmd_least_action(cfg):
    case = _require_case(cfg)
    report = least_action_check(case, cfg["N"], cfg["M"], cfg["seed"],
                                dictionary=DICTIONARIES[cfg["dictionary"]](),
                                alpha=cfg["alpha"])
    report["case"] = cfg["case"]
    return report, 0


def _cmd_noether(cfg):
    case = _require_case(cfg)
    if not cfg["generator"]:
        raise ConfigError("generator", "required for the noether command")
    gen = get_generator(cfg["generator"])
    if cfg["ablate_compensator"] and cfg["generator"] != "rotation_e3":
        raise ConfigError("ablate_compensator", "only meaningful for rotation_e3")
    gate = symmetry_check(case, gen)
    head = {"case": cfg["case"], "generator": cfg["generator"],
            "symmetry_check": gate.to_dict()}
    if not gate.within_gate:
        return {**head, "verdict": "refused"}, EXIT_GATE
    ensemble = simulate_pu(case, cfg["N"], cfg["M"], cfg["seed"])
    if cfg["generator"] == "rotation_e3":
        process = noether_rotation_closed_form(
            case, ensemble, include_compensator=not cfg["ablate_compensator"])
    else:
        process = noether_process_general(case, ensemble, gen)
    report = martingale_test(process, ensemble, alpha=cfg["alpha"])
    return {**head, "process": process.label, "martingale": report.to_dict(),
            "verdict": report.verdict}, 0


def _cmd_suite(cfg):
    from .suite import CRITERIA, SuiteScale, least_scale, run_suite
    scale = SuiteScale(n_paths=cfg["N"], steps=cfg["M"],
                       seed=cfg["seed"], alpha=cfg["alpha"])
    only = None
    if cfg["only"] is not None:
        try:
            only = [int(tok) for tok in cfg["only"].split(",")]
        except ValueError:
            raise ConfigError("only", "expected comma-separated criterion numbers") from None
        if any(not 1 <= i <= len(CRITERIA) for i in only):
            raise ConfigError("only", f"criteria run from 1 to {len(CRITERIA)}")
    for key, least in least_scale(only or range(1, len(CRITERIA) + 1)).items():
        if cfg[key] < least:
            raise ConfigError(key, f"must be >= {least} for the selected criteria")
    report = run_suite(scale, only=only)
    return report, 0 if report["passed"] else EXIT_SUITE_FAIL


_COMMANDS = {
    "catalog": (_cmd_catalog, "list cases"),
    "residual": (_cmd_residual, "probe-grid momentum residual"),
    "el-test": (_cmd_el_test, "Euler-Lagrange martingale test"),
    "action": (_cmd_action, "stochastic action and entropy identity"),
    "least-action": (_cmd_least_action, "criticality over a perturbation dictionary"),
    "noether": (_cmd_noether, "symmetry gate plus invariant-process test"),
    "suite": (_cmd_suite, "run the full acceptance battery"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lagrangeflow",
        description="Monte Carlo verification of the stochastic least-action "
                    "model for viscosity-1/2 incompressible flows")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for key, opt in _OPTIONS.items():
            if command not in opt.commands:
                continue
            flag = "--" + key.replace("_", "-")
            if opt.parse is _boolean:
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=opt.parse, choices=opt.choices)
        p.add_argument("--config")
        p.add_argument("--out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: building one costs about 2 ms, and parsing
    leaves it as it was."""
    return build_parser()


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _table(results: dict, stream) -> None:
    for name in sorted(results):
        value = results[name]
        if isinstance(value, float):
            value = f"{value:.6g}"
        stream.write(f"  {name:<42} {value}\n")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _resolve_config(args)
        results, code = _COMMANDS[args.command][0](cfg)
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
    except MemoryError as err:      # CapacityError or any failed allocation
        sys.stderr.write(f"error: {str(err) or 'out of memory'}\n")
        return EXIT_CAPACITY

    report = {"schema_version": SCHEMA_VERSION, "command": args.command,
              "config": {"command": args.command, **cfg},
              "results": results}
    _emit(report, args.out)
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
