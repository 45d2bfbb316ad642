import io
import json
import contextlib
import functools
import os

import pytest

from lagrangeflow import action, cli, engine, girsanov, suite
from lagrangeflow.cli import main

from conftest import threads


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


SMALL = ["--N", "800", "--M", "40", "--seed", "3"]


def test_catalog_command():
    code, out, err = run_cli(["catalog"])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1.1"
    assert report["command"] == "catalog"
    assert "config" in report
    names = [row["name"] for row in report["results"]["cases"]]
    assert names == ["frozen_taylor_green", "lamb_oseen", "taylor_green",
                     "taylor_green_rotated", "zero_flow"]
    flags = {row["name"]: row["is_exact_solution"]
             for row in report["results"]["cases"]}
    assert flags["frozen_taylor_green"] is False and flags["lamb_oseen"] is True


def test_residual_command():
    code, out, _ = run_cli(["residual", "--case", "taylor_green"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["max_abs_residual"] <= 1e-8
    assert results["max_abs_divergence"] <= 1e-10

    code, out, _ = run_cli(["residual", "--case", "frozen_taylor_green",
                            "--grid", "5"])
    assert code == 0
    assert json.loads(out)["results"]["max_abs_residual"] >= 0.5


def test_el_test_command_verdicts():
    code, out, _ = run_cli(["el-test", "--case", "zero_flow"] + SMALL)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["verdict"] == "pass"
    assert report["config"]["N"] == 800 and report["config"]["seed"] == 3

    code, out, _ = run_cli(["el-test", "--case", "frozen_taylor_green",
                            "--N", "4000", "--M", "50", "--seed", "3"])
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "fail"


def test_action_command():
    code, out, _ = run_cli(["action", "--case", "zero_flow"] + SMALL)
    assert code == 0
    results = json.loads(out)["results"]
    identity = results["identity"]
    assert identity["S"]["value"] == pytest.approx(-0.5, abs=1e-12)
    assert identity["residual_minus"]["value"] == pytest.approx(0.0, abs=1e-12)
    # schema 1.1: the action is the identity's S, and no records list
    assert results["action"] == identity["S"]
    assert sorted(results) == ["action", "case", "identity"]


def test_least_action_command():
    code, out, _ = run_cli(["least-action", "--case", "zero_flow"] + SMALL)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["verdict"] == "critical"
    assert len(results["entries"]) >= 9
    code, out, _ = run_cli(["least-action", "--case", "zero_flow",
                            "--dictionary", "deterministic"] + SMALL)
    assert len(json.loads(out)["results"]["entries"]) == 6


def test_noether_command_and_gate():
    code, out, _ = run_cli(["noether", "--case", "taylor_green",
                            "--generator", "translation_e3"] + SMALL)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["verdict"] == "pass"
    assert results["symmetry_check"]["within_gate"] is True

    # gate violations exit with code 3 and still emit the check report
    code, out, _ = run_cli(["noether", "--case", "taylor_green",
                            "--generator", "rotation_e3"] + SMALL)
    assert code == 3
    results = json.loads(out)["results"]
    assert results["verdict"] == "refused"
    assert results["symmetry_check"]["max_pressure_violation"] >= 0.1

    code, out, _ = run_cli(["noether", "--case", "taylor_green_rotated",
                            "--generator", "translation_e3"] + SMALL)
    assert code == 3


def test_noether_ablation_flag():
    args = ["noether", "--case", "lamb_oseen", "--generator", "rotation_e3",
            "--N", "4000", "--M", "50", "--seed", "3"]
    code, out, _ = run_cli(args)
    assert code == 0 and json.loads(out)["results"]["verdict"] == "pass"
    code, out, _ = run_cli(args + ["--ablate-compensator"])
    assert code == 0 and json.loads(out)["results"]["verdict"] == "fail"
    code, _, err = run_cli(["noether", "--case", "taylor_green",
                            "--generator", "translation_e3",
                            "--ablate-compensator"] + SMALL)
    assert code == 2 and "ablate" in err


def test_ablation_of_a_translation_is_refused_before_any_work(monkeypatch):
    # at the default N the refused run would first gate and simulate 50,000 paths
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the configuration was checked")

    monkeypatch.setattr(cli, "simulate_pu", forbidden)
    monkeypatch.setattr(cli, "symmetry_check", forbidden)
    code, out, err = run_cli(["noether", "--case", "taylor_green",
                              "--generator", "translation_e3", "--ablate-compensator"])
    assert code == 2 and out == "" and "ablate" in err


def test_criterion_9_commands_identical_across_worker_counts():
    # criterion 9's six commands above the 2048-path worker floor, so two
    # and eight workers really split the paths
    base = ["--N", "4097", "--M", "6", "--seed", "7"]
    for argv in (["catalog"], ["residual", "--case", "taylor_green"],
                 ["el-test", "--case", "taylor_green"] + base,
                 ["action", "--case", "taylor_green"] + base,
                 ["least-action", "--case", "taylor_green"] + base,
                 ["noether", "--case", "lamb_oseen", "--generator", "rotation_e3"] + base):
        outputs = []
        for count in ("1", "2", "8"):
            with threads(count):
                outputs.append(run_cli(argv)[:2])
        assert outputs[0][0] == 0 and outputs == [outputs[0]] * 3, argv[0]


def test_unknown_case_and_generator_exit_2():
    code, _, err = run_cli(["residual", "--case", "vortex_sheet"])
    assert code == 2 and "unknown case" in err
    code, _, err = run_cli(["noether", "--case", "taylor_green",
                            "--generator", "dilation_e3"] + SMALL)
    assert code == 2 and "unknown generator" in err


def test_invalid_config_exit_2(monkeypatch, tmp_path):
    code, _, err = run_cli(["el-test", "--case", "zero_flow", "--alpha", "2.0",
                            "--N", "10", "--M", "4", "--seed", "0"])
    assert code == 2 and "alpha" in err
    code, _, err = run_cli(["el-test", "--case", "zero_flow", "--N", "0",
                            "--M", "4", "--seed", "0"])
    assert code == 2 and "'N'" in err
    # one path has no standard error, so no verdict can be supported
    code, _, err = run_cli(["el-test", "--case", "zero_flow", "--N", "1",
                            "--M", "4", "--seed", "0"])
    assert code == 2 and "'N'" in err
    code, _, err = run_cli(["least-action", "--case", "zero_flow", "--N", "1",
                            "--M", "4", "--seed", "0"])
    assert code == 2 and "'N'" in err
    code, _, err = run_cli(["el-test", "--case", "zero_flow", "--N", "10",
                            "--M", "4", "--seed", "-3"])
    assert code == 2 and "'seed'" in err
    code, _, err = run_cli(["el-test"] + SMALL)
    assert code == 2 and "case" in err
    for missing in ("/nonexistent/exp.cfg", "."):     # absent, a directory
        code, _, err = run_cli(["el-test", "--case", "zero_flow", "--N", "10",
                                "--M", "4", "--seed", "0", "--config", missing])
        assert code == 2 and "'config'" in err and missing in err
        assert len(err.splitlines()) == 1
    files = {"nosep.cfg": "case zero_flow\n", "abc.cfg": "N = abc\n",
             "dict.cfg": "dictionary = foo\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    tiny = ["--case", "zero_flow", "--N", "10", "--M", "4", "--seed", "0"]
    for argv, field in (
            (["el-test"] + tiny + ["--seed", str(2**64)], "'seed'"),
            (["el-test"] + tiny + ["--M", "1"], "'M'"),
            (["residual", "--case", "zero_flow", "--grid", "1"], "'grid'"),
            (["el-test"] + tiny + ["--config", str(tmp_path / "nosep.cfg")],
             "'config'"),
            (["el-test"] + tiny[:2] + ["--config", str(tmp_path / "abc.cfg")],
             "'N'"),
            (["least-action"] + tiny + ["--config", str(tmp_path / "dict.cfg")],
             "'dictionary'"),
            (["suite", "--only", "1,x"], "'only'"),
            (["suite", "--only", ""], "'only'"),
            (["noether"] + tiny, "'generator'")):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and field in err, argv
        assert len(err.splitlines()) == 1, argv
    monkeypatch.setenv("LAGRANGEFLOW_THREADS", "abc")
    code, _, err = run_cli(["el-test", "--case", "zero_flow", "--N", "10",
                            "--M", "4", "--seed", "0"])
    assert code == 2 and "LAGRANGEFLOW_THREADS" in err
    assert len(err.splitlines()) == 1


def test_removed_eps_option_exit_2(tmp_path):
    # schema 1.1 dropped eps, which nothing read; it is now an invalid input
    code, out, err = run_cli(["least-action", "--case", "zero_flow",
                              "--eps", "0.01"] + SMALL)
    assert code == 2 and out == "" and "--eps" in err
    assert len(err.splitlines()) == 1
    cfg = tmp_path / "eps.cfg"
    cfg.write_text("case = zero_flow\neps = 0.01\n")
    code, out, err = run_cli(["least-action", "--config", str(cfg)] + SMALL)
    assert code == 2 and out == "" and "'eps'" in err
    assert len(err.splitlines()) == 1
    code, _, _ = run_cli(["least-action", "--case", "zero_flow"] + SMALL)
    assert code == 0


TOP = 2**64 - 1


@pytest.mark.parametrize("argv, field", [
    # action simulates its Wiener companion at seed + 1
    (["action", "--case", "zero_flow", "--seed", str(TOP)], "'seed'"),
    # the battery simulates at seeds up to seed + 1099 (criterion 8)
    (["suite", "--only", "7", "--seed", str(TOP)], "'seed'"),
    (["suite", "--only", "1", "--seed", str(TOP - 1098)], "'seed'"),
    # 1 - alpha / (2 cells) rounds to 1: 6 M cells, the dictionary's 9, and
    # at least criterion 8's 300 for the battery
    (["el-test", "--case", "zero_flow", "--alpha", "1e-17"], "'alpha'"),
    (["el-test", "--case", "zero_flow", "--M", "200", "--alpha", "1.2e-13"], "'alpha'"),
    (["least-action", "--case", "zero_flow", "--alpha", "1e-17"], "'alpha'"),
    (["noether", "--case", "lamb_oseen", "--generator", "rotation_e3",
      "--alpha", "1e-17"], "'alpha'"),
    (["suite", "--only", "1", "--alpha", "1e-14"], "'alpha'"),
    # criteria 2 and 7 also simulate at M // 2, which needs M >= 4
    (["suite", "--only", "7", "--N", "300", "--M", "3"], "'M'"),
    (["suite", "--only", "2", "--N", "50", "--M", "3"], "'M'"),
    (["suite", "--M", "2"], "'M'"),
], ids=["action_seed", "suite_seed", "suite_seed_offset", "el_test_alpha",
        "el_test_alpha_M200", "least_action_alpha", "noether_alpha", "suite_alpha",
        "suite_M_criterion_7", "suite_M_criterion_2", "suite_M_all"])
def test_seeds_and_alphas_out_of_reach_exit_2_before_any_work(argv, field,
                                                              monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    # every simulation and every path functional walks through walk_pieces
    for module in (engine, girsanov, action):
        monkeypatch.setattr(module, "walk_pieces", no_work)
    monkeypatch.setattr(cli.catalog, "probe_residuals", no_work)
    code, out, err = run_cli([*argv[:1], "--N", "10", "--M", "4", *argv[1:]])
    assert code == 2 and out == "" and field in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_seeds_and_alphas_just_in_reach_run():
    tiny = ["--N", "10", "--M", "4"]
    for argv in (["action", "--case", "zero_flow", "--seed", str(TOP - 1)],
                 ["el-test", "--case", "zero_flow", "--seed", str(TOP)],
                 ["el-test", "--case", "zero_flow", "--M", "200", "--alpha", "1.4e-13"],
                 ["suite", "--only", "1", "--seed", str(TOP - 1099)],
                 ["suite", "--only", "1", "--M", "2"]):
        code, out, _ = run_cli([*argv[:1], *tiny, *argv[1:]])
        assert code == 0 and json.loads(out)["results"], argv


def test_usage_errors_exit_2_with_one_line():
    # catalog and residual run no simulation, so they take no N, M, seed, alpha
    # (values they would accept, so only the flag itself can be refused), and
    # action, which tests no Bonferroni family, takes no alpha
    no_simulation = [[*command, flag, value]
                     for command in (["catalog"], ["residual", "--case", "zero_flow"])
                     for flag, value in (("--N", "999"), ("--M", "3"),
                                         ("--seed", "3"), ("--alpha", "0.5"))]
    for argv in ([], ["el-test", "--N", "many"], ["launch"],
                 ["least-action", "--dictionary", "huge"],
                 ["action", "--case", "zero_flow", "--alpha", "0.5"], *no_simulation):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv


def test_one_parser_per_process_answers_as_fresh_ones(monkeypatch):
    # a usage error, a valid command, then a different command on the
    # process's one parser: each answers as it does on a parser of its own
    sequence = [["el-test", "--case", "taylor_green", "--N", "many"],
                ["least-action", "--case", "taylor_green", "--N", "64", "--M", "4"],
                ["residual", "--case", "lamb_oseen", "--grid", "3"],
                ["el-test", "--bogus"]]
    built = []

    def counting_build():
        built.append(1)
        return cli.build_parser()

    monkeypatch.setattr(cli, "_parser", functools.cache(counting_build))
    shared = [run_cli(argv) for argv in sequence]
    assert len(built) == 1
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run_cli(argv))
    assert len(built) == 1 + len(sequence)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 2]


def test_capacity_exit_4():
    code, _, err = run_cli(["el-test", "--case", "zero_flow",
                            "--N", str(2**42), "--M", "8", "--seed", "0"])
    assert code == 4 and "bytes" in err
    # least-action keeps no ensemble: its (J, N) table of per-path values is
    # what numpy refuses, before any path is walked
    code, out, err = run_cli(["least-action", "--case", "zero_flow",
                              "--N", str(2**42), "--M", "8", "--seed", "0"])
    assert code == 4 and out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1
    # any failed allocation, not only the engine's capacity rule: the probe
    # grid's meshgrid asks for 7 PiB and numpy refuses at once
    code, out, err = run_cli(["residual", "--case", "taylor_green",
                              "--grid", "100000"])
    assert code == 4 and out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1
    # shapes numpy cannot index, which it refuses with a ValueError rather
    # than a MemoryError: the capacity rule refuses them first
    huge = "100000000000000000000"
    for argv in (["el-test", "--case", "taylor_green", "--N", huge, "--M", "4"],
                 ["action", "--case", "taylor_green", "--N", huge, "--M", "4"],
                 ["least-action", "--case", "taylor_green", "--N", huge, "--M", "4"],
                 ["el-test", "--case", "taylor_green", "--N", "10000000000000000",
                  "--M", "200"],
                 ["action", "--case", "taylor_green", "--N", "4", "--M", huge],
                 ["residual", "--case", "taylor_green", "--grid", huge],
                 ["suite", "--only", "3", "--N", huge, "--M", "4"]):
        code, out, err = run_cli(argv)
        assert code == 4 and out == "", argv
        assert err.startswith("error: cannot allocate ") and len(err.splitlines()) == 1


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "case = zero_flow\n"
        "N = 600\n"
        "M: 30\n"
        "seed = 5\n"
        "alpha = 0.02\n")
    code, out, _ = run_cli(["el-test", "--config", str(cfg)])
    assert code == 0
    conf = json.loads(out)["config"]
    assert conf == conf | {"case": "zero_flow", "N": 600, "M": 30,
                           "seed": 5, "alpha": 0.02}

    code, out, _ = run_cli(["el-test", "--config", str(cfg), "--N", "900"])
    assert json.loads(out)["config"]["N"] == 900

    bad = tmp_path / "bad.cfg"
    bad.write_text("halt_and_catch_fire = 1\n")
    code, _, err = run_cli(["el-test", "--config", str(bad)])
    assert code == 2 and "unknown config key" in err

    flags = tmp_path / "flags.cfg"
    for text, value in (("YES", True), ("0", False), ("False", False)):
        flags.write_text(f"ablate_compensator = {text}\n")
        code, out, _ = run_cli(["el-test", "--config", str(flags)] + SMALL[:2]
                               + ["--case", "zero_flow", "--M", "4"])
        assert code == 0
        assert json.loads(out)["config"]["ablate_compensator"] is value
    flags.write_text("ablate_compensator = maybe\n")
    code, out, err = run_cli(["el-test", "--config", str(flags)])
    assert code == 2 and out == "" and "cannot parse value 'maybe'" in err


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["residual", "--case", "zero_flow",
                            "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "residual"
    # an unwritable target is refused before any work, not after it
    for bad in (tmp_path / "missing" / "r.json", tmp_path):
        code, out, err = run_cli(["catalog", "--out", str(bad)])
        assert code == 2 and out == "" and "'out'" in err
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


def test_repeat_runs_bit_identical():
    argv = ["el-test", "--case", "taylor_green"] + SMALL
    outputs = {run_cli(argv)[1] for _ in range(3)}
    assert len(outputs) == 1


def test_suite_command_subset_and_exit_codes():
    code, out, _ = run_cli(["suite", "--only", "1", "--N", "500", "--M", "10",
                            "--seed", "3"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["passed"] is True
    assert [c["criterion"] for c in results["criteria"]] == [1]

    # far below the calibrated scale the dichotomy criterion cannot reach its
    # z >= 10 requirement, so the suite reports method-level failure (exit 1)
    code, out, _ = run_cli(["suite", "--only", "2", "--N", "400", "--M", "10",
                            "--seed", "3"])
    assert code == 1
    assert json.loads(out)["results"]["passed"] is False

    code, _, err = run_cli(["suite", "--only", "12"])
    assert code == 2 and "criteria" in err


@pytest.mark.parametrize("before", [None, "3"], ids=["unset", "set"])
def test_in_process_runs_leave_the_thread_variable_as_found(before, monkeypatch):
    # criteria 5 and 9 run the CLI in the battery's process, criterion 9 at a
    # thread count of its own: the variable reads as before after each run,
    # also after a run that raises
    if before is None:
        monkeypatch.delenv("LAGRANGEFLOW_THREADS", raising=False)
    else:
        monkeypatch.setenv("LAGRANGEFLOW_THREADS", before)
    assert suite._run_cli(["catalog"], threads=8)[0] == 0
    assert os.environ.get("LAGRANGEFLOW_THREADS") == before
    seen = []

    def failing_main(argv):
        seen.append(os.environ.get("LAGRANGEFLOW_THREADS"))
        raise RuntimeError("command failed")

    monkeypatch.setattr(cli, "main", failing_main)
    for threads in (8, None):
        with pytest.raises(RuntimeError, match="command failed"):
            suite._run_cli(["catalog"], threads)
        assert os.environ.get("LAGRANGEFLOW_THREADS") == before
    assert seen == ["8", before]
