"""Path-ensemble generation under the drifted law and under Wiener measure.

The canonical process starts at the origin and is discretized by
Euler-Maruyama on a uniform grid over [0, 1].  Under the law attached to a
velocity field u the drift is -u(1 - t, x) with unit dispersion; under
Wiener measure the drift is zero.  Gaussian increments are drawn from a
counter-based Philox stream keyed by (seed, path block), with a fixed block
size, so every increment is a pure function of (seed, n, k): regenerating
with the same arguments is bit-exact and independent of how many workers run
the blocks.  Workers draw a block's increments in fixed pieces, in order,
and walk each piece on its own; ``walk_pieces`` hands every walked piece, with
the drift it used, to a visitor, so an estimator can read the paths without
an ensemble.  Ensembles store their positions, time-major, the flow they were
drawn under and the seed that keys their draws, never the increments; a
process sample stores the ensemble whose paths it was built on.

Novikov's condition holds automatically for the bounded catalog fields, so
the change-of-measure density is a true martingale; nothing is checked at
runtime.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fields import Array, FlowCase

_MASK64 = (1 << 64) - 1
BLOCK_PATHS = 8192          # fixed; never derived from the worker count
CHUNK_FLOOR = 2048          # paths per worker at the least, fixed likewise
PIECE_PATHS = 1024          # paths per simulation piece, fixed likewise

WIENER_SEED_OFFSET = 1      # a drifted ensemble's Wiener companion uses seed + 1


class CapacityError(MemoryError):
    """Allocation failure, reported with the requested size in bytes."""

    def __init__(self, requested_bytes: int):
        self.requested_bytes = requested_bytes
        super().__init__(f"cannot allocate {requested_bytes} bytes for ensemble storage")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k/M, k = 0..M."""

    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def dt(self) -> float:
        return 1.0 / self.steps

    @property
    def times(self) -> Array:
        return np.arange(self.steps + 1) / self.steps


@dataclass(frozen=True)
class PathEnsemble:
    """N discretized paths, without the Gaussian increments that drove them.

    positions has shape (N, M+1, 3) with positions[:, 0] = 0.  It is the
    transposed view of a read-only time-major (M+1, N, 3) buffer, so the time
    slice positions[:, k] that every estimator reads is contiguous.  case is
    the flow whose law drew the paths, None for Wiener measure, and seed the
    Philox key of the draws.
    """

    grid: TimeGrid
    positions: Array
    case: FlowCase | None
    seed: int

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]

    @property
    def flow(self) -> FlowCase:
        """case, refused with ValueError under Wiener measure: no flow to read."""
        if self.case is None:
            raise ValueError("a Wiener ensemble has no flow to build a process on")
        return self.case


@dataclass(frozen=True)
class ProcessSample:
    """An adapted process evaluated on the paths of an ensemble.

    values has shape (N, M+1) for scalar processes or (N, M+1, 3) for vector
    ones, N and M+1 those of ensemble.positions.  Builders in this package
    only read path data up to the current index, which is what makes the
    sample adapted.
    """

    ensemble: PathEnsemble
    values: Array
    label: str

    def __post_init__(self):
        n_m = self.ensemble.positions.shape[:2]
        if self.values.shape[:2] != n_m:
            raise ValueError(f"values of shape {self.values.shape} are not on the "
                             f"ensemble's {n_m[0]} paths and {n_m[1]} times")

    @property
    def grid(self) -> TimeGrid:
        return self.ensemble.grid

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 3

    def component(self, i: int) -> "ProcessSample":
        """Scalar component i of a vector sample, labelled "<label>[i+1]"."""
        return ProcessSample(self.ensemble, self.values[:, :, i],
                             f"{self.label}[{i + 1}]")


def worker_count() -> int:
    """LAGRANGEFLOW_THREADS if set (a positive integer), else 8, capped at the
    cores this process may run on: more threads than cores only contend."""
    env = os.environ.get("LAGRANGEFLOW_THREADS")
    if env and (not env.strip().isdecimal() or int(env) < 1):
        raise ValueError("LAGRANGEFLOW_THREADS must be a positive integer")
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(int(env) if env else 8, cores)


def _alloc(shape) -> Array:
    try:
        return np.zeros(shape)
    except MemoryError:
        raise CapacityError(int(np.prod(shape)) * 8) from None


def _blocks(n_paths: int) -> list:
    """(block index, first path, end path) of every fixed-size path block."""
    return [(i, lo, min(lo + BLOCK_PATHS, n_paths))
            for i, lo in enumerate(range(0, n_paths, BLOCK_PATHS))]


def _run_workers(worker, n_paths: int, *shapes) -> None:
    """worker(*scratch) on one thread per CHUNK_FLOOR paths, capped at
    worker_count() (a second worker does not pay for less); inline for one.
    The scratch, zeroed arrays of the given shapes, comes from this thread:
    freed memory a worker thread allocated stays in its malloc arena."""
    scratch = [[np.zeros(shape) for shape in shapes]
               for _ in range(min(worker_count(), -(-n_paths // CHUNK_FLOOR)))]
    if len(scratch) == 1:
        worker(*scratch[0])
    else:
        with ThreadPoolExecutor(max_workers=len(scratch)) as pool:
            list(pool.map(lambda arrays: worker(*arrays), scratch))


def _philox(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], np.uint64)))


def _draw(gen: np.random.Generator, piece: Array) -> Array:
    """Fill piece, (P, M, 3), with the generator's next scaled increments."""
    gen.standard_normal(out=piece)
    piece *= np.sqrt(1.0 / piece.shape[1])
    return piece


def _check_scale(n_paths: int, steps: int, seed: int) -> None:
    if n_paths < 1:
        raise ValueError("N must be >= 1")
    if steps < 2:
        raise ValueError("M must be >= 2")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if seed > _MASK64:
        raise ValueError("seed must be < 2**64")


def walk_pieces(case, n_paths: int, steps: int, seed: int, visit) -> None:
    """Simulate the ensemble of ``simulate_pu(case, ...)`` (``simulate_wiener``
    for case None) piece by piece, and call visit(lo, x, v) on each piece.

    A worker claims the next piece of PIECE_PATHS paths of an 8192-path block
    and draws its increments under that block's lock, so the block's Philox
    generator yields them in piece order and every increment is the one a
    whole-block draw gives.  It walks the piece unlocked; each step writes the
    drift v_k = -u(1 - t_k, X_k) it used into the increment slot it just
    consumed.  x is the piece's time-major (M+1, P, 3) positions of paths lo to
    lo + P - 1, and v its (P, M, 3) drifts for k < M (None without a case).
    Both are the worker's scratch, overwritten by its next piece, and visit
    runs on the worker threads.
    """
    _check_scale(n_paths, steps, seed)
    grid = TimeGrid(steps)
    times, dt = grid.times, grid.dt
    queues = [(threading.Lock(), _philox(seed, index), iter(range(lo, hi, PIECE_PATHS)), hi)
              for index, lo, hi in _blocks(n_paths)]

    def worker(noise, x):       # x[0] stays at the origin
        for lock, gen, starts, end in queues:
            while True:
                with lock:
                    lo = next(starts, None)
                    if lo is None:
                        break
                    piece = _draw(gen, noise[:min(end - lo, PIECE_PATHS)])
                b = len(piece)
                for k in range(steps):
                    step = piece[:, k]
                    if case is not None:
                        v = drift_slice(case, times[k], x[k, :b])
                        step = v * dt + step
                        piece[:, k] = v
                    np.add(x[k, :b], step, out=x[k + 1, :b])
                visit(lo, x[:, :b], None if case is None else piece)

    rows = min(n_paths, PIECE_PATHS)
    _run_workers(worker, n_paths, (rows, steps, 3), (steps + 1, rows, 3))


def _simulate(case, n_paths: int, steps: int, seed: int) -> PathEnsemble:
    _check_scale(n_paths, steps, seed)
    buffer = _alloc((steps + 1, n_paths, 3))

    def copy(lo, x, v):
        buffer[:, lo:lo + x.shape[1]] = x

    walk_pieces(case, n_paths, steps, seed, copy)
    buffer.flags.writeable = False
    return PathEnsemble(TimeGrid(steps), buffer.transpose(1, 0, 2), case, seed)


def simulate_pu(case: FlowCase, n_paths: int, steps: int, seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble with drift -u(1 - t, x) and unit dispersion."""
    return _simulate(case, n_paths, steps, seed)


def simulate_wiener(n_paths: int, steps: int, seed: int) -> PathEnsemble:
    """Driftless ensemble: discretized standard Brownian motion from 0."""
    return _simulate(None, n_paths, steps, seed)


# ---------------------------------------------------------------------------
# Fields are read at reversed time and left points, f(1 - t_k, X_k), in
# increasing k: by walk_pieces visitors, or by the stored-ensemble builders.

def drift_slice(case: FlowCase, t: float, x: Array) -> Array:
    """v = -u(1 - t, x) at grid time t: a walk step's or a process slice's drift."""
    return np.negative(case.velocity.eval(1.0 - t, x))


def adapted_process(ensemble: PathEnsemble, label: str,
                    point=None, step=None) -> ProcessSample:
    """value_k + sum_{j=1..k} step(slice j-1, slice j) on a drifted ensemble:
    (value_k, aux_k) = point(t_k, X_k, v_k), v_k = -u(1 - t_k, X_k) for u the
    ensemble's flow, or (v_k, None) without a point, and slice k = (t_k, X_k,
    v_k, aux_k).  One pass a slice: u is evaluated once, point before step,
    each output slice is written once, the sum adds in ``np.cumsum``'s order
    from slice 1.  A Wiener ensemble is refused with ValueError."""
    case, x, values = ensemble.flow, ensemble.positions, None
    for k, t in enumerate(ensemble.grid.times):
        here = (t, x[:, k], drift_slice(case, t, x[:, k]))
        value, aux = (here[2], None) if point is None else point(*here)
        here += (aux,)
        if values is None:
            values = np.empty(x.shape[:2] + value.shape[1:])
        if step is None or k == 0:      # a ufunc outpaces strided assignment
            np.positive(value, out=values[:, k])
        else:
            term = step(prev, here)
            running = term if k == 1 else running + term    # cumsum's order
            np.add(value, running, out=values[:, k])
        prev = here
    return ProcessSample(ensemble, values, label)


def drift_process(ensemble: PathEnsemble, *, step=None) -> ProcessSample:
    """The realized drift v[n, k] = -u(1 - t_k, X[n, k]) along each path (the
    momentum dL/dv = v of the kinetic-minus-pressure Lagrangian), plus the
    running sum of step if given, as in adapted_process: el_process adds grad p."""
    return adapted_process(ensemble, f"drift({ensemble.flow.name})", step=step)
