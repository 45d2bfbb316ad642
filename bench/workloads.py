"""Benchmark workloads: the operations of each pass, their expected verdicts,
and the checks applied to every operation's output.

A workload is a single-process closed loop with one caller: the next
operation starts only after the previous one returned.  Operations go
through stable public entry points only, ``lagrangeflow.cli.main(argv)``
in-process and ``lagrangeflow.suite.run_criterion``.

Every statistical operation runs at level alpha = 1e-6 instead of the
default 0.01.  The threshold is the only thing alpha changes, so the
arithmetic is the same, but a correct program then rejects an exact
solution about once in a million tests rather than once in a hundred, and
the broken control still fails by a wide margin (desk el-test |z| ~ 13
against a threshold of 6.1; criterion 3 at N = 8000 gives |z| ~ 11 against
5.3).  With alpha = 0.01 a run of 20 seeded rounds would see a false
rejection about half of the time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass

ALPHA = 1e-6
CATALOG_NAMES = ("frozen_taylor_green,lamb_oseen,taylor_green,"
                 "taylor_green_rotated,zero_flow")

# Expected verdict of every operation, keyed by (command, case).
EXPECTED = {
    ("catalog", None): CATALOG_NAMES,
    ("residual", "taylor_green"): "exact",
    ("el-test", "frozen_taylor_green"): "fail",
    ("el-test", "lamb_oseen"): "pass",
    ("el-test", "taylor_green"): "pass",
    ("action", "taylor_green"): "identity_holds",
    ("least-action", "taylor_green"): "critical",
    ("noether", "lamb_oseen"): "pass",
    ("criterion-3", None): "passed",
}


@dataclass(frozen=True)
class Sizes:
    """(N, M) of each workload; ``TOY_SIZES`` shrinks them for the self-tests."""

    desk: tuple = (50_000, 200)
    least: tuple = (8000, 100)
    small: tuple = (2000, 50)


DEFAULT_SIZES = Sizes()
TOY_SIZES = Sizes(desk=(600, 20), least=(400, 10), small=(200, 10))


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv, or criterion 3 at (N, M, seed)."""

    command: str
    case: str | None
    argv: tuple
    expected: str
    path_steps: int          # sum of N * M over the ensembles it draws


def _cli_op(command, case, extra=(), n_m=None, seed=None, ensembles=1):
    argv = [command] + (["--case", case] if case else []) + list(extra)
    steps = 0
    if n_m is not None:
        n, m = n_m
        argv += ["--N", str(n), "--M", str(m), "--seed", str(seed)]
        if command != "action":
            argv += ["--alpha", repr(ALPHA)]
        steps = ensembles * n * m
    return Op(command, case, tuple(argv), EXPECTED[(command, case)], steps)


def desk_cli_ops(seed: int, sizes: Sizes) -> list:
    nm = sizes.desk
    return [
        _cli_op("el-test", "frozen_taylor_green", n_m=nm, seed=seed),
        _cli_op("el-test", "lamb_oseen", n_m=nm, seed=seed),
        _cli_op("action", "taylor_green", n_m=nm, seed=seed, ensembles=2),
        _cli_op("noether", "lamb_oseen", ("--generator", "rotation_e3"),
                n_m=nm, seed=seed),
    ]


def least_action_ops(seed: int, sizes: Sizes) -> list:
    n, m = sizes.least
    return [Op("criterion-3", None, (str(n), str(m), str(seed)),
               EXPECTED[("criterion-3", None)], 3 * n * m)]


def small_cli_round(seed: int, sizes: Sizes) -> list:
    """The six commands criterion 9 issues, at criterion 9's size."""
    nm = sizes.small
    return [
        _cli_op("catalog", None),
        _cli_op("residual", "taylor_green"),
        _cli_op("el-test", "taylor_green", n_m=nm, seed=seed),
        _cli_op("action", "taylor_green", n_m=nm, seed=seed, ensembles=2),
        _cli_op("least-action", "taylor_green", n_m=nm, seed=seed),
        _cli_op("noether", "lamb_oseen", ("--generator", "rotation_e3"),
                n_m=nm, seed=seed),
    ]


def pass_ops(workload: str, seed: int, index: int, sizes: Sizes) -> list:
    """Operations of pass ``index``; every pass draws fresh inputs.

    A desk_cli pass is the four desk commands, a least_action pass is one
    criterion-3 run, and a small_cli pass is one round of six commands.
    """
    if workload == "desk_cli":
        return desk_cli_ops(seed + index, sizes)
    if workload == "least_action":
        return least_action_ops(seed + index, sizes)
    if workload == "small_cli":
        return small_cli_round(seed + index, sizes)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOAD_NAMES = ("desk_cli", "least_action", "small_cli")
# Passes a run makes even when --seconds is shorter.  small_cli makes at
# least 20 rounds, 120 operations, so 12 latency samples lie beyond p90.
MIN_PASSES = {"desk_cli": 1, "least_action": 1, "small_cli": 20}


# ---------------------------------------------------------------------------
# running and checking

@dataclass
class OpRecord:
    index: int
    op: Op
    latency_s: float
    code: int | None = None
    stdout: str = ""
    verdict: str = ""
    ok: bool = False
    sha256: str = ""
    worst_cell: dict | None = None
    error: str = ""

    def to_dict(self) -> dict:
        return {"index": self.index, "argv": list(self.op.argv),
                "expected": self.op.expected, "verdict": self.verdict,
                "ok": self.ok, "latency_ms": self.latency_s * 1e3,
                "exit_code": self.code, "stdout_bytes": len(self.stdout),
                "stdout_sha256": self.sha256, "worst_cell": self.worst_cell,
                "error": self.error}


def _to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True,
                      default=lambda o: o.item() if hasattr(o, "item") else str(o))


def run_op(lf, op: Op, index: int) -> OpRecord:
    """Run one operation and time it; checking happens later, untimed."""
    t0 = time.perf_counter()
    try:
        if op.command == "criterion-3":
            n, m, seed = (int(v) for v in op.argv)
            scale = lf.suite.SuiteScale(n_paths=n, steps=m, seed=seed, alpha=ALPHA)
            report = lf.suite.run_criterion(3, scale)
            code, text = 0, _to_json(report)
        else:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = lf.cli.main(list(op.argv))
            text = out.getvalue()
    except Exception as err:    # a failing operation is counted, never fatal
        return OpRecord(index, op, time.perf_counter() - t0,
                        error=f"{type(err).__name__}: {err}")
    return OpRecord(index, op, time.perf_counter() - t0, code=code, stdout=text)


def _z_check(record: OpRecord, reports: list, labels: list, reported: float):
    """Recompute max |z| from the emitted cells and locate the worst cell."""
    best = None
    for label, rep in zip(labels, reports):
        for j, row in enumerate(rep["cells"]["z"]):
            for k, z in enumerate(row):
                if best is None or abs(z) > best[0]:
                    best = (abs(z), label, rep["j_labels"][j], k)
    record.worst_cell = {"process": best[1], "j": best[2], "k": best[3],
                         "abs_z": best[0]}
    if best[0] != reported:
        record.error = f"max_abs_z {reported!r} != recomputed {best[0]!r}"
        return False
    return True


def verdict_of(record: OpRecord):
    """(verdict, checks passed) for a finished operation's output."""
    command = record.op.command
    if command == "criterion-3":
        report = json.loads(record.stdout)
        return ("passed" if report["passed"] else "failed"), True
    results = json.loads(record.stdout)["results"]
    if command == "catalog":
        return ",".join(row["name"] for row in results["cases"]), True
    if command == "residual":
        exact = results["max_abs_residual"] <= results["residual_tol"]
        return ("exact" if exact else "not_exact"), True
    if command == "action":
        holds = results["identity"]["identity_holds"]
        return ("identity_holds" if holds else "identity_fails"), True
    if command == "least-action":
        return results["verdict"], True
    if command == "el-test":
        comps = results["components"]
        ok = _z_check(record, comps, [f"el[{i + 1}]" for i in range(len(comps))],
                      results["max_abs_z"])
        return results["verdict"], ok
    if command == "noether":
        mart = results["martingale"]
        ok = _z_check(record, [mart], [results["process"]], mart["max_abs_z"])
        return results["verdict"], ok
    raise ValueError(f"no verdict rule for {command!r}")


def check(record: OpRecord) -> OpRecord:
    """Fill verdict, ok and sha256; a mismatch is counted, never raised."""
    if record.error:
        record.verdict = "raised"
        return record
    record.sha256 = hashlib.sha256(record.stdout.encode()).hexdigest()
    if record.code != 0:
        record.verdict = f"exit {record.code}"
        return record
    try:
        record.verdict, checks_ok = verdict_of(record)
    except (KeyError, TypeError, ValueError) as err:
        record.verdict, checks_ok = "unreadable", False
        record.error = f"{type(err).__name__}: {err}"
    record.ok = checks_ok and record.verdict == record.op.expected
    return record
