"""Self-tests of the benchmark at toy scale: python3 -m pytest -q bench"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def toy(monkeypatch):
    """Toy sizes, one set-up probe, and thread settings restored afterwards."""
    for var in run.THREAD_VARS + ("LAGRANGEFLOW_THREADS",):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "DEFAULT_SIZES", workloads.TOY_SIZES)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_benchmark_json_matches_spec():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_every_workload_runs_and_prints_every_metric(workload, trace, toy,
                                                    capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    stdout = capsys.readouterr().out
    assert code == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    specs = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert math.isfinite(printed["value"])
        assert f"{m['name']} " in stdout      # human-readable line too


def test_wrong_expected_verdict_counts_as_failed(monkeypatch, toy):
    monkeypatch.setitem(workloads.EXPECTED, ("catalog", None), "not_the_catalog")
    result = run.measure(argparse.Namespace(
        workload="small_cli", seed=3, seconds=1, trace=0))
    rounds = result["attempted"] // 6        # one catalog op per round
    assert result["correct"] is False
    assert result["failed"] >= rounds >= workloads.MIN_PASSES["small_cli"]


def test_failing_operations_are_recorded_not_raised():
    lf, _ = run.setup()
    bad_case = workloads.Op("el-test", "no_such_case",
                            ("el-test", "--case", "no_such_case"), "pass", 0)
    record = workloads.check(workloads.run_op(lf, bad_case, 0))
    assert not record.ok and record.verdict == "exit 2"

    good = workloads.small_cli_round(5, workloads.TOY_SIZES)[-1]   # noether
    record = workloads.check(workloads.run_op(lf, good, 0))
    assert record.worst_cell is not None and not record.error
    report = json.loads(record.stdout)
    report["results"]["martingale"]["max_abs_z"] += 1.0
    tampered = dataclasses.replace(record, stdout=json.dumps(report), error="")
    assert not workloads.check(tampered).ok
    assert "recomputed" in tampered.error


def test_tracer_restores_every_original():
    lf, _ = run.setup()
    from tracer import Tracer
    before = {(m, a): v for m in ("engine", "cli", "suite", "catalog")
              for a, v in vars(getattr(lf, m)).items() if callable(v)}
    tracer = Tracer(lf)
    tracer.install()
    assert lf.cli.simulate_pu is not before[("cli", "simulate_pu")]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        lf.cli.main(["el-test", "--case", "taylor_green", "--N", "300",
                     "--M", "10", "--seed", "1"])
    tracer.uninstall()
    after = {(m, a): v for m in ("engine", "cli", "suite", "catalog")
             for a, v in vars(getattr(lf, m)).items() if callable(v)}
    assert after == before
    names = {s[2] for s in tracer.spans}
    assert {"cli.main", "engine.simulate_pu", "engine.drift_process",
            "noether.el_process", "martingale.martingale_test",
            "fields.u", "fields.gradp"} <= names
    assert tracer.path_steps == 300 * 10
