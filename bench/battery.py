"""One-off reference: the full acceptance battery, timed per criterion.

    python3 bench/battery.py [--out FILE]

Runs ``lagrangeflow.suite.run_suite()`` once at its default desk scale
(N = 50,000, M = 200, seed 7, alpha = 0.01), with the thread counts pinned
as in run.py, and records each criterion's wall time and the peak resident
memory sampled while it ran.  It shows what each benchmark workload is a
slice of; it is neither a workload nor gated.  Takes about ten minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

import run


class RssSampler(threading.Thread):
    """Polls this process's resident size; ``window_peak`` resets on read."""

    def __init__(self, period_s=0.05):
        super().__init__(daemon=True)
        self.period_s = period_s
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0
        self.stop = threading.Event()

    def rss(self):
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self.page

    def run(self):
        while not self.stop.wait(self.period_s):
            self.peak = max(self.peak, self.rss())

    def window_peak(self):
        peak, self.peak = max(self.peak, self.rss()), 0
        return peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(run.OUT_DIR / "battery.json"))
    args = parser.parse_args(argv)
    nproc = run.pin_environment()
    lf, setup_info = run.setup()
    suite = lf.suite
    sampler = RssSampler()
    sampler.start()
    rows = []

    def timed(criterion):
        def wrapper(scale, cache):
            sampler.window_peak()
            t0 = time.perf_counter()
            result = criterion(scale, cache)
            rows.append({"criterion": result["criterion"], "name": result["name"],
                         "passed": result["passed"],
                         "wall_s": time.perf_counter() - t0,
                         "peak_rss_mb": sampler.window_peak() / 2**20})
            print(f"  criterion {result['criterion']}: {rows[-1]['wall_s']:8.1f} s "
                  f"{rows[-1]['peak_rss_mb']:8.0f} MB  "
                  f"{'PASS' if result['passed'] else 'FAIL'}", flush=True)
            return result
        return wrapper

    original = suite.CRITERIA
    suite.CRITERIA = tuple(timed(c) for c in original)
    try:
        t0 = time.perf_counter()
        report = suite.run_suite()
        total = time.perf_counter() - t0
    finally:
        suite.CRITERIA = original
        sampler.stop.set()
        sampler.join()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"scale": report["scale"], "passed": report["passed"],
           "total_wall_s": total, "peak_rss_mb": peak, "setup": setup_info,
           "environment": run.environment(nproc), "criteria": rows}
    run.OUT_DIR.mkdir(exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(json.dumps(out, indent=1) + "\n")
    print(f"battery: {total:.1f} s, peak RSS {peak:.0f} MB, "
          f"{'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
