"""lagrangeflow benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload least_action --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload least_action --seed 7 --seconds 30 --trace 1
    python3 bench/run.py            # every workload, each in a fresh process

A workload run pins the thread counts, measures set-up, then runs whole
passes of the workload until --seconds have passed (and at least the
workload's minimum), checks every operation's output, and prints one JSON object as
the last line of stdout.  With --trace 0 it holds the end-to-end metrics;
with --trace 1 the run measures untraced passes for the first half of the
budget and traced passes for the second, and reports the per-layer metrics.
Run details (environment, every operation with its verdict, stdout sha256
and worst martingale cell) go to .bench_out/; traced runs also write their
spans there.  Without --workload every workload runs in its own process,
the metrics are printed as a table, and BENCHMARK.json is rewritten from
the specification below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import (DEFAULT_SIZES, MIN_PASSES, WORKLOAD_NAMES,  # noqa: E402
                       check, pass_ops, run_op)

RUN_SECONDS = 30
SETUP_PROBES = 7            # set-ups in fresh processes; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The workloads BENCHMARK.json lists.  desk_cli runs by hand and in run_all
# but is not listed: one desk pass takes 30-45 s on a shared 2-core machine,
# and a full regression check (22 runs of each listed workload and 4 more,
# within 3420 s) would not fit with it.
WORKLOADS = [
    {"name": "least_action",
     "why": "criterion 3 at N=8000, M=100: one small simulation per case, then "
            "about 73 field passes over the same paths, most of them repeats"},
    {"name": "small_cli",
     "why": "rounds of criterion 9's six commands at N=2000, M=50, at least 20 "
            "a run: fixed per-call costs (set-up, JSON, probe grid) dominate"},
]
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "path_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]
PER_LAYER = [
    {"name": "engine.simulate_s", "unit": "s", "better": "lower"},
    {"name": "engine.drift_process_s", "unit": "s", "better": "lower"},
    {"name": "engine.path_steps", "unit": "count", "better": "lower"},
    {"name": "engine.ensemble_bytes", "unit": "B", "better": "lower"},
    {"name": "engine.thread_speedup", "unit": "x", "better": "higher"},
    {"name": "fields.u_points", "unit": "count", "better": "lower"},
    {"name": "fields.p_points", "unit": "count", "better": "lower"},
    {"name": "fields.gradp_points", "unit": "count", "better": "lower"},
    {"name": "fields.jac_points", "unit": "count", "better": "lower"},
    {"name": "fields.eval_s", "unit": "s", "better": "lower"},
    {"name": "fields.points_per_s", "unit": "1/s", "better": "higher"},
    {"name": "fields.repeat_frac", "unit": "frac", "better": "lower"},
    {"name": "catalog.warmup_s", "unit": "s", "better": "lower"},
    {"name": "catalog.probe_s", "unit": "s", "better": "lower"},
    {"name": "girsanov.s", "unit": "s", "better": "lower"},
    {"name": "action.criticality_s", "unit": "s", "better": "lower"},
    {"name": "action.analytic_s", "unit": "s", "better": "lower"},
    {"name": "action.fd_s", "unit": "s", "better": "lower"},
    {"name": "action.action_per_path_s", "unit": "s", "better": "lower"},
    {"name": "martingale.tests", "unit": "count", "better": "lower"},
    {"name": "martingale.cells", "unit": "count", "better": "lower"},
    {"name": "martingale.s", "unit": "s", "better": "lower"},
    {"name": "martingale.bytes_computed", "unit": "B", "better": "lower"},
    {"name": "noether.el_s", "unit": "s", "better": "lower"},
    {"name": "noether.rotation_s", "unit": "s", "better": "lower"},
    {"name": "suite.self_s", "unit": "s", "better": "lower"},
    {"name": "cli.self_s", "unit": "s", "better": "lower"},
    {"name": "cli.json_bytes", "unit": "B", "better": "lower"},
    {"name": "trace.overhead_frac", "unit": "frac", "better": "lower"},
    {"name": "trace.coverage_frac", "unit": "frac", "better": "higher"},
]


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {"command": ["python3", "bench/run.py"], "paths": ["bench"],
            "run_seconds": RUN_SECONDS, "workloads": WORKLOADS,
            "end_to_end": END_TO_END, "per_layer": PER_LAYER}


# ---------------------------------------------------------------------------
# environment and set-up

def pin_environment() -> int:
    """One BLAS/OpenMP thread; LAGRANGEFLOW_THREADS = the cores we may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["LAGRANGEFLOW_THREADS"] = str(nproc)
    return nproc


def setup():
    """Import the package from this checkout, build every case, warm up.

    The warm-up evaluates the Lamb-Oseen pressure once, which builds its
    lazy spline; without it that cost lands in the first noether operation.
    """
    if not (SRC / "lagrangeflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no lagrangeflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lagrangeflow
    import lagrangeflow.cli
    t1 = time.perf_counter()
    if Path(lagrangeflow.__file__).resolve().parent != SRC / "lagrangeflow":
        raise SystemExit(f"error: imported lagrangeflow from {lagrangeflow.__file__}")
    import numpy as np
    catalog = lagrangeflow.catalog
    for name in catalog.case_names():
        catalog.get_case(name)
    catalog.get_case("lamb_oseen").pressure.eval(0.5, np.zeros((1, 3)))
    t2 = time.perf_counter()
    return lagrangeflow, {"setup_s": t2 - t0, "import_s": t1 - t0,
                          "warmup_s": t2 - t1}


def setup_in_fresh_process() -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_probe_ms() -> float:
    """Median time of a fixed numpy job; shows how contended the machine was."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 150_000).reshape(-1, 3)
    took = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(40):
            np.cos(x).sum()
        took.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(took)


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": nproc, "ram_mb": ram / 2**20,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "lagrangeflow_threads": int(os.environ["LAGRANGEFLOW_THREADS"]),
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS}}


# ---------------------------------------------------------------------------
# measuring

def run_passes(lf, workload, seed, budget_s, sizes, first, tracer=None):
    """Whole passes until the budget has passed, and at least the
    workload's minimum; the last pass may end after the budget.

    Returns [(pass index, wall seconds, op records)]; a pass's wall time runs
    from its first operation's start to its last operation's end.
    """
    passes = []
    start = time.perf_counter()
    index = first
    while True:
        ops = pass_ops(workload, seed, index, sizes)
        records = []
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{index}.{i}"
            records.append(run_op(lf, op, i))
        passes.append((index, time.perf_counter() - t0, records))
        index += 1
        if (len(passes) >= MIN_PASSES[workload]
                and time.perf_counter() - start >= budget_s):
            return passes


def end_to_end(passes, setups) -> dict:
    # The mean pass, not the median: contention comes in phases of tens of
    # seconds, and a mean moves smoothly with the share of a run they cover.
    wall = statistics.mean(wall for _, wall, _ in passes)
    latencies = [r.latency_s * 1e3 for _, _, recs in passes for r in recs]
    steps = sum(r.op.path_steps for r in passes[0][2])
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
           if len(latencies) > 1 else latencies[0])
    return {
        "wall_s": wall,
        "path_steps_per_s": steps / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": p90,
    }


def thread_speedup(lf, nproc, sizes, seed) -> float:
    """One desk simulate_pu at one thread against one at nproc threads."""
    n, m = sizes.desk
    case = lf.catalog.get_case("taylor_green")
    took = []
    for threads in (1, nproc):
        os.environ["LAGRANGEFLOW_THREADS"] = str(threads)
        t0 = time.perf_counter()
        ensemble = lf.engine.simulate_pu(case, n, m, seed)
        took.append(time.perf_counter() - t0)
        del ensemble
    os.environ["LAGRANGEFLOW_THREADS"] = str(nproc)
    return took[0] / took[1]


def per_layer(tracer, traced, untraced, warmup_s, speedup) -> dict:
    from tracer import GIRSANOV_SELF, covered
    selfs = tracer.self_times()
    dur, own, points = {}, {}, {}
    for sid, parent, name, _op, t0, t1, pts in tracer.spans:
        dur[name] = dur.get(name, 0.0) + (t1 - t0)
        own[name] = own.get(name, 0.0) + selfs[sid]
        points[name] = points.get(name, 0) + pts
    n = len(traced)

    def total(*names, table=dur):
        return sum(table.get(name, 0.0) for name in names) / n

    fields = [name for name in dur if name.startswith("fields.")]
    eval_s = total(*fields)
    all_points = total(*fields, table=points)
    traced_wall = sum(wall for _, wall, _ in traced)
    top = [(t0, t1) for _s, parent, _n, _o, t0, t1, _p in tracer.spans
           if parent is None]
    json_bytes = sum(len(r.stdout) for _, _, recs in traced for r in recs
                     if r.op.command != "criterion-3")
    wall_t = statistics.mean(wall for _, wall, _ in traced)
    wall_u = statistics.mean(wall for _, wall, _ in untraced)
    return {
        "engine.simulate_s": total("engine.simulate_pu", "engine.simulate_wiener"),
        "engine.drift_process_s": total("engine.drift_process"),
        "engine.path_steps": tracer.path_steps / n,
        "engine.ensemble_bytes": tracer.peak_bytes,
        "engine.thread_speedup": speedup,
        "fields.u_points": total("fields.u", table=points),
        "fields.p_points": total("fields.p", table=points),
        "fields.gradp_points": total("fields.gradp", table=points),
        "fields.jac_points": total("fields.jac", table=points),
        "fields.eval_s": eval_s,
        "fields.points_per_s": all_points / eval_s if eval_s else 0.0,
        "fields.repeat_frac": (tracer.field_repeats / tracer.field_calls
                               if tracer.field_calls else 0.0),
        "catalog.warmup_s": warmup_s,
        "catalog.probe_s": total("catalog.probe_residuals", "noether.symmetry_check"),
        "girsanov.s": total(*GIRSANOV_SELF, table=own),
        "action.criticality_s": total("action.least_action_check"),
        "action.analytic_s": total("action.action_derivative_analytic"),
        "action.fd_s": total("action.action_derivative_fd"),
        "action.action_per_path_s": total("action.action_per_path"),
        "martingale.tests": sum(1 for s in tracer.spans
                                if s[2] == "martingale.martingale_test") / n,
        "martingale.cells": tracer.martingale_cells / n,
        "martingale.s": total("martingale.martingale_test"),
        "martingale.bytes_computed": tracer.martingale_bytes / n,
        "noether.el_s": total("noether.el_process"),
        "noether.rotation_s": total("noether.noether_rotation_closed_form"),
        "suite.self_s": total("suite.run_criterion", "suite.run_suite", table=own),
        "cli.self_s": total("cli.main", table=own),
        "cli.json_bytes": json_bytes / n,
        "trace.overhead_frac": wall_t / wall_u - 1.0,
        "trace.coverage_frac": covered(top) / traced_wall,
    }


def measure(args) -> dict:
    nproc = pin_environment()
    sizes = DEFAULT_SIZES
    setups = [setup_in_fresh_process() for _ in range(SETUP_PROBES)]
    setup_times = [s["setup_s"] for s in setups]
    lf, _ = setup()
    env = environment(nproc)
    probe_before = speed_probe_ms()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if not args.trace:
        passes = run_passes(lf, args.workload, args.seed, args.seconds, sizes, 0)
        metrics = end_to_end(passes, setup_times)
        specs = END_TO_END
    else:
        from tracer import Tracer
        untraced = run_passes(lf, args.workload, args.seed, args.seconds / 2,
                              sizes, 0)
        tracer = Tracer(lf)
        tracer.install()
        try:
            traced = run_passes(lf, args.workload, args.seed, args.seconds / 2,
                                sizes, len(untraced), tracer)
        finally:
            tracer.uninstall()
        speedup = thread_speedup(lf, nproc, sizes, args.seed)
        warmup_s = statistics.median(s["warmup_s"] for s in setups)
        metrics = per_layer(tracer, traced, untraced, warmup_s, speedup)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
        passes = untraced + traced
        specs = PER_LAYER

    env["speed_probe_ms"] = [probe_before, speed_probe_ms()]
    records = [check(r) for _, _, recs in passes for r in recs]
    failed = sum(not r.ok for r in records)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "setups": setups,
              "passes": [{"index": i, "wall_s": wall, "ops": len(recs)}
                         for i, wall, recs in passes],
              "latency_samples": len(records),
              "ops_failed_frac": failed / len(records),
              "metrics": metrics, "ops": [r.to_dict() for r in records]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in specs}
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops={len(records)} failed={failed} "
          f"ops_failed_frac={failed / len(records):.4g} "
          f"nproc={nproc} threads={env['lagrangeflow_threads']}")
    for r in records:
        if not r.ok:
            print(f"  FAILED op {r.index}: {' '.join(r.op.argv)} -> "
                  f"{r.verdict} (expected {r.op.expected}) {r.error}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process; print the table; write the spec."""
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    ok = True
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{workload}: attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"ops_failed_frac={result['failed'] / result['attempted']:.4g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.setup_only:
        _, info = setup()
        print(json.dumps(info))
        return 0
    if args.workload is None:
        return run_all(args)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
