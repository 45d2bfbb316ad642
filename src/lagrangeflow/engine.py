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
an ensemble.  Ensembles store only their positions, time-major, and redraw
the increments whenever they are asked for.

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

WIENER_TAG = "wiener"
WIENER_SEED_OFFSET = 1      # a drifted ensemble's Wiener companion uses seed + 1


class TagMismatchError(ValueError):
    """An operation received an ensemble generated under the wrong measure."""


class GridMismatchError(ValueError):
    """Two samples or ensembles do not share the same time grid."""


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
    """N discretized paths; the driving Gaussian increments are redrawn on demand.

    positions has shape (N, M+1, 3) with positions[:, 0] = 0.  It is the
    transposed view of a time-major (M+1, N, 3) buffer, so the time slice
    positions[:, k] that every estimator reads is contiguous.  noise has shape
    (N, M, 3) and holds the raw increments; it is not stored but regenerated
    from the Philox stream at each access, bit for bit the increments the
    simulation used.  Both arrays are read-only.
    """

    grid: TimeGrid
    positions: Array
    measure_tag: str
    seed: int

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]

    @property
    def noise(self) -> Array:
        out = _alloc((self.n_paths, self.grid.steps, 3))
        for lo, hi, piece in _increments(self.seed, self.grid.steps,
                                         _blocks(self.n_paths)):
            out[lo:hi] = piece
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class ProcessSample:
    """An adapted process evaluated on the ensemble grid.

    values has shape (N, M+1) for scalar processes or (N, M+1, 3) for vector
    ones.  Builders in this package only read path data up to the current
    index, which is what makes the sample adapted.
    """

    grid: TimeGrid
    values: Array
    label: str

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 3

    def component(self, i: int) -> "ProcessSample":
        """Scalar component i of a vector sample, labelled "<label>[i+1]"."""
        return ProcessSample(self.grid, self.values[:, :, i],
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


def _increments(seed: int, steps: int, blocks):
    """Yield (first path, end path, scaled increments) of the (index, first,
    end) path blocks, PIECE_PATHS paths at a time.  One Philox generator per
    block draws its pieces in order, which gives the numbers of one draw of the
    whole block.  Each piece is overwritten by the next one."""
    for index, lo, hi in blocks:
        gen = _philox(seed, index)
        scratch = np.empty((min(hi - lo, PIECE_PATHS), steps, 3))
        for start in range(lo, hi, PIECE_PATHS):
            piece = _draw(gen, scratch[:min(hi - start, PIECE_PATHS)])
            yield start, start + len(piece), piece


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


def _simulate(case, n_paths: int, steps: int, seed: int, tag: str) -> PathEnsemble:
    _check_scale(n_paths, steps, seed)
    buffer = _alloc((steps + 1, n_paths, 3))

    def copy(lo, x, v):
        buffer[:, lo:lo + x.shape[1]] = x

    walk_pieces(case, n_paths, steps, seed, copy)
    buffer.flags.writeable = False
    return PathEnsemble(TimeGrid(steps), buffer.transpose(1, 0, 2), tag, seed)


def pu_tag(case: FlowCase) -> str:
    return f"P_u({case.name})"


def simulate_pu(case: FlowCase, n_paths: int, steps: int, seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble with drift -u(1 - t, x) and unit dispersion."""
    return _simulate(case, n_paths, steps, seed, pu_tag(case))


def simulate_wiener(n_paths: int, steps: int, seed: int) -> PathEnsemble:
    """Driftless ensemble: discretized standard Brownian motion from 0."""
    return _simulate(None, n_paths, steps, seed, WIENER_TAG)


def require_tag(ensemble: PathEnsemble, tag: str) -> None:
    if ensemble.measure_tag != tag:
        raise TagMismatchError(
            f"ensemble carries measure {ensemble.measure_tag!r}, expected {tag!r}")


def require_same_grid(a, b) -> None:
    if a.grid.steps != b.grid.steps:
        raise GridMismatchError(f"grids differ: {a.grid.steps} vs {b.grid.steps}")


# ---------------------------------------------------------------------------
# Every estimator reads fields at reversed time and left points, f(1 - t_k,
# X_k), in increasing k; left_point_sum keeps O(N) memory.

def left_point_sum(term, ensemble: PathEnsemble) -> Array:
    """Per-path sum over k = 0..M-1 of term(1 - t_k, X_k, X_{k+1} - X_k).

    Accumulates from zero in k order; the result has the shape of one term.
    """
    times = ensemble.grid.times
    x = ensemble.positions
    total = 0.0
    for k in range(ensemble.grid.steps):
        total += term(1.0 - times[k], x[:, k], x[:, k + 1] - x[:, k])
    return total


def drift_slice(case: FlowCase, t: float, x: Array, out=None) -> Array:
    """The drift v = -u(1 - t, x) of the positions x at grid time t, into out
    if given."""
    return np.negative(case.velocity.eval(1.0 - t, x), out=out)


def drift_process(case: FlowCase, ensemble: PathEnsemble) -> ProcessSample:
    """The realized drift v[n, k] = -u(1 - t_k, X[n, k]) along each path.

    This is also the momentum conjugate of the kinetic-minus-pressure
    Lagrangian, since dL/dv = v.
    """
    require_tag(ensemble, pu_tag(case))
    x = ensemble.positions
    values = np.empty(x.shape)
    for k, t in enumerate(ensemble.grid.times):
        drift_slice(case, t, x[:, k], out=values[:, k])
    return ProcessSample(ensemble.grid, values, f"drift({case.name})")

