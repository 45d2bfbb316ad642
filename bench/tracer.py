"""Spans around the calls into each lagrangeflow layer, recorded from outside.

``Tracer.install`` replaces public functions of the package modules with
timing wrappers (every module attribute bound to the same function object is
replaced, so ``from .engine import simulate_pu`` copies are covered too) and
wraps ``catalog.get_case`` so that the FlowCase it returns carries timed
field callables.  ``uninstall`` puts every original back.  Nothing here is
imported by an untraced run.

A span is (id, parent id, name, operation id, start, end, points).  Spans
are kept in memory and written out when the run ends.  Field calls made on
the simulation worker threads take the main thread's innermost open span as
their parent, so a parent's self time is its duration minus the union of
the intervals its children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
import weakref

import numpy as np

# (module, function) pairs that get a span named "<module>.<function>".
TRACED = {
    "engine": ("simulate_pu", "simulate_wiener", "drift_process"),
    "girsanov": ("log_density_pu", "pressure_integral", "estimate_Zp",
                 "relative_entropy", "action_entropy_identity"),
    "action": ("action_per_path", "stochastic_action",
               "action_derivative_analytic", "action_derivative_fd",
               "least_action_check"),
    "martingale": ("martingale_test",),
    "noether": ("el_process", "noether_process_general",
                "noether_rotation_closed_form", "symmetry_check"),
    "catalog": ("probe_residuals",),
    "suite": ("run_criterion", "run_suite"),
    "cli": ("main",),
}
GIRSANOV_SELF = ("girsanov.log_density_pu", "girsanov.pressure_integral",
                 "girsanov.estimate_Zp", "girsanov.relative_entropy",
                 "girsanov.action_entropy_identity")
FIELD_KINDS = {"u": ("velocity", "eval"), "u_dt": ("velocity", "time_deriv"),
               "jac": ("velocity", "jacobian"), "lap": ("velocity", "laplacian"),
               "p": ("pressure", "eval"), "gradp": ("pressure", "gradient")}


def covered(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._lock = threading.RLock()   # finalizers may run while held
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []          # (module, attribute, original)
        self._cases = {}
        # field-call repeat accounting, keyed per root array while it lives
        self._seen = {}
        self.field_calls = 0
        self.field_repeats = 0
        # ensemble accounting
        self.path_steps = 0
        self.live_bytes = 0
        self.peak_bytes = 0
        self.martingale_cells = 0
        self.martingale_bytes = 0

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, t1, points=0):
        self._stack().pop()
        self.spans.append((sid, parent, name, self.op, t0, t1, points))

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0, time.perf_counter())
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    # -- fields -------------------------------------------------------------

    def _forget(self, root_id):
        with self._lock:
            self._seen.pop(root_id, None)

    def _field_key(self, x):
        """(root id, key) naming the input array's memory while it lives.

        Two calls see the same input when they read the same memory: same
        root array, offset, shape and strides.  Ensembles are read-only once
        built; when a root array dies its keys are dropped, so reused memory
        never counts as a repeat.
        """
        root = x
        while isinstance(root.base, np.ndarray):
            root = root.base
        rid = id(root)
        with self._lock:
            if rid not in self._seen:
                self._seen[rid] = set()
                weakref.finalize(root, self._forget, rid)
        return rid, (x.__array_interface__["data"][0], x.shape, x.strides)

    def _wrap_field(self, name, case_name, fn):
        def traced(t, x):
            x = np.asarray(x)
            rid, key = self._field_key(x)
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(t, x)
            finally:
                t1 = time.perf_counter()
                self._close(sid, parent, name, t0, t1, x.size // 3)
                full = (name, case_name, float(t), key)
                with self._lock:
                    self.field_calls += 1
                    seen = self._seen.get(rid)
                    if seen is not None:
                        if full in seen:
                            self.field_repeats += 1
                        else:
                            seen.add(full)
        return traced

    def _traced_case(self, case):
        if case.name not in self._cases:
            parts = {"velocity": {}, "pressure": {}}
            for kind, (part, attr) in FIELD_KINDS.items():
                fn = getattr(getattr(case, part), attr)
                parts[part][attr] = self._wrap_field(f"fields.{kind}", case.name, fn)
            self._cases[case.name] = dataclasses.replace(
                case,
                velocity=dataclasses.replace(case.velocity, **parts["velocity"]),
                pressure=dataclasses.replace(case.pressure, **parts["pressure"]))
        return self._cases[case.name]

    # -- counters -------------------------------------------------------------

    def _release(self, nbytes):
        with self._lock:
            self.live_bytes -= nbytes

    def _count_ensemble(self, ens, args, kwargs):
        # arrays the ensemble stores (positions and noise today); a lazily
        # computed attribute is not resident and is not touched here
        nbytes = sum(v.nbytes for v in vars(ens).values()
                     if isinstance(v, np.ndarray))
        with self._lock:
            self.path_steps += ens.n_paths * ens.grid.steps
            self.live_bytes += nbytes
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        weakref.finalize(ens, self._release, nbytes)

    def _count_martingale(self, report, args, kwargs):
        sample = args[0] if args else kwargs["sample"]
        cells = report.z.size
        with self._lock:
            self.martingale_cells += cells
            self.martingale_bytes += cells * sample.values.shape[0] * 8

    # -- install ------------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        prefix = self.package.__name__
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        after = {"engine.simulate_pu": self._count_ensemble,
                 "engine.simulate_wiener": self._count_ensemble,
                 "martingale.martingale_test": self._count_martingale}
        for mod_name, names in TRACED.items():
            mod = getattr(self.package, mod_name)
            for fn_name in names:
                name = f"{mod_name}.{fn_name}"
                original = getattr(mod, fn_name)
                self._patch_everywhere(original, self._wrap(name, original,
                                                            after.get(name)))
        get_case = self.package.catalog.get_case

        @functools.wraps(get_case)
        def traced_get_case(name):
            return self._traced_case(get_case(name))

        self._patch_everywhere(get_case, traced_get_case)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the union of its children's intervals."""
        children = {}
        for sid, parent, _name, _op, t0, t1, _pts in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        return {sid: (t1 - t0) - covered(children.get(sid, ()), t0, t1)
                for sid, _parent, _name, _op, t0, t1, _pts in self.spans}

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, op, t0, t1, pts in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "op": op, "start": t0, "end": t1,
                                     "points": pts}) + "\n")
