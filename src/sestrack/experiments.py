"""Seeded Monte Carlo experiments over simulated trend-stationary paths.

Replication ``r`` of an experiment with master seed ``s`` simulates its
path from the child seed ``child_seed(s, r)``.  Replications are processed
in fixed blocks of ``BLOCK_SIZE``.  Each block is sampled by
``processes._sample``, which owns its one stream-major array, one row per
replication; this module only hands it the step that smooths and squares
each cache-sized time slab.  Blocks share nothing, so ``monte_carlo_mse`` may
run them on forked worker processes through ``_fork_map``, the package's one
parallel path, which hands results back in item order.  A block's summary is
(count, per-step means, per-step M2), the mean and M2 of the
per-replication tail means riding as one more entry of each array, and one
Chan update folds the summaries in block order, so every statistic depends
on the config alone, never on the worker count.  Squared errors follow the
delayed pairing of the tracking analysis: the error at step t is
``m_{t+1} - m*_t``.

This module computes results and writes no files; ``dataio`` writes them
(and holds ``reproduce_figure``), and nothing here imports it.  The
description of a run, ``ExperimentConfig``, lives in ``config`` with its
codec, so a command that only reads run flags, such as ``bound``, never
loads this module.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import threading
from dataclasses import dataclass

from ._numpy import np
from .bounds import BoundReport, tracking_bound
from .config import ExperimentConfig
from .processes import (
    AR1, MA1, MAX_CELLS, Linear, NoiseModel, Sinusoid, TrendSpec, _sample, trend_sequence,
)
from .seeding import check_count, child_seeds
from .smoothing import InitPolicy, _initial_estimates, _recursion, ses_run

BLOCK_SIZE = 1024
_SIGKILL = 9  # fixed by POSIX; spares importing the signal module

FIGURE_ALPHA = 0.1
FIGURE_HORIZON = 1000
FIGURE_INIT = 8.0

_FIGURE_SINUSOID = Sinusoid(1.0, math.pi / 1000.0, 0.0)

# noise / trend pairs behind the published single-trajectory plots
FIGURE_CONFIGS: dict[str, tuple[NoiseModel, TrendSpec]] = {
    "1a": (MA1(2.0), Linear(2.0, 0.1)),
    "1b": (MA1(2.0), _FIGURE_SINUSOID),
    "2a": (MA1(-0.4), Linear(2.0, 0.1)),
    "2b": (MA1(-0.4), _FIGURE_SINUSOID),
    "3a": (AR1(0.2), Linear(0.1, 0.01)),
    "3b": (AR1(0.2), _FIGURE_SINUSOID),
}


@dataclass(frozen=True)
class MseCurve:
    """Per-step empirical mean squared tracking error with standard errors.

    Index i of the arrays holds the statistics of (m_{t+1} - m*_t)^2 at
    t = i + 1.  ``tail_mean`` averages the per-step means over the final
    tail window (steps >= ``tail_start``), ``tail_max`` is their maximum
    there, and ``tail_se`` is the standard error of the tail mean computed
    across replications.
    """

    mean: np.ndarray
    stderr: np.ndarray
    tail_mean: float
    tail_se: float
    tail_max: float
    tail_start: int
    replications: int

    def __post_init__(self) -> None:
        self.mean.flags.writeable = False
        self.stderr.flags.writeable = False


def _moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and sums of squared deviations; overwrites ``values``."""
    mean = values.mean(axis=0)
    values -= mean
    np.square(values, out=values)
    return mean, values.sum(axis=0)


def _combine(total: tuple, block: tuple) -> tuple:
    """Chan's pairwise update of two (count, mean, M2) summaries."""
    (n1, mean1, m2_1), (n2, mean2, m2_2) = total, block
    n = n1 + n2
    delta = mean2 - mean1
    return n, mean1 + delta * (n2 / n), m2_1 + m2_2 + np.square(delta) * (n1 * n2 / n)


def _tail_index(config: ExperimentConfig) -> int:
    """Index of the first step of the tail window in a per-step array."""
    return config.horizon - max(1, math.ceil(config.tail_fraction * config.horizon))


def _run_block(config: ExperimentConfig, block: range) -> tuple:
    """The (count, mean, M2) summary of the squared tracking errors of the
    replications in ``block``: entries 0..T-1 of the two arrays are the
    per-step means and sums of squared deviations, and entry T is those of
    the per-replication tail means.

    ``_sample`` draws replication i's path into row i of one stream-major
    block and hands each time slab to ``smooth_and_square``, which smooths
    it from the estimate row carried over from the last slab and squares
    its errors in place; the returned (B, T) rows then hold the squared
    errors."""
    horizon, alpha = config.horizon, config.alpha
    trend = trend_sequence(config.trend, horizon)
    estimate = None

    def smooth_and_square(t0: int, x: np.ndarray) -> None:
        nonlocal estimate
        if t0 == 0:
            estimate = _initial_estimates(config.init, x[0])
        _recursion(x, estimate, alpha)
        estimate[...] = x[-1]
        x -= trend[t0 : t0 + len(x), None]
        np.square(x, out=x)

    squared = _sample(config.noise, trend, child_seeds(config.seed, block), smooth_and_square)
    tails = squared[:, _tail_index(config) :].mean(axis=1)
    tail = tails.mean()
    mean, m2 = _moments(squared)
    return len(block), np.append(mean, tail), np.append(m2, np.square(tails - tail).sum())


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _child(func, items, write: int):
    """Body of a forked worker: pickle ``func(item)`` for each of ``items``
    into the pipe's ``write`` end, flushed one by one, and leave without
    returning to the caller's code (exit 0 on success, 1 after printing the
    error to stderr)."""
    status = 1
    try:
        with open(write, "wb") as pipe:
            for item in items:
                pickle.dump(func(item), pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()
        status = 0
    except BaseException as exc:
        os.write(2, f"Monte Carlo worker (pid {os.getpid()}) failed: {exc!r}\n".encode())
    finally:
        os._exit(status)


def _fork_map(func, items, workers: int):
    """Yield ``func(item)`` for each of the sequence ``items``, in order,
    computed by n = min(workers, len(items), usable CPUs) processes: worker
    w computes items w, w + n, ...  Worker 0 is this process, computing
    each of its items one round ahead, so it seldom waits on the children;
    the others are forked children, each pickling its results into a pipe
    as it computes them, so it runs at most a pipe buffer ahead.  Without
    ``os.fork`` or beside other threads n is 1.  A child that fails or ends
    early raises ChildProcessError naming the Monte Carlo worker, its pid
    and wait status; one that the embedding program reaps is done if it has
    delivered every result, and failed if not.  However iteration ends
    (exhausted, failed or closed early), every child still running is
    killed and all are reaped."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    n = max(1, min(workers, len(items), _usable_cpus()))
    children = {}  # worker -> (pid, read end) of each child not yet reaped

    def reap(worker: int, ended: bool) -> None:
        pid, pipe = children[worker]
        name = f"Monte Carlo worker {worker} (pid {pid})"
        pipe.close()
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # the embedding program reaped it
            status = None
        del children[worker]
        if status is None:
            if ended:  # every result arrived
                return
            raise ChildProcessError(f"{name} ended early and was reaped outside the map")
        code = os.waitstatus_to_exitcode(status)
        if code or not ended:  # a child that ends early failed, whatever its code
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise ChildProcessError(f"{name} {how}; wait status {status}")

    try:
        for worker in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(func, items[worker::n], write)
            os.close(write)
            children[worker] = (pid, open(read, "rb"))
        own = map(func, items[::n])
        mine = next(own, None)
        for start in range(0, len(items), n):
            yield mine
            mine = next(own, None)  # before waiting on this round's children
            for worker in range(1, min(n, len(items) - start)):
                try:
                    result = pickle.load(children[worker][1])
                except (EOFError, pickle.UnpicklingError):
                    reap(worker, ended=False)
                yield result
        for worker in list(children):
            reap(worker, ended=True)
    finally:  # a child the embedding program has reaped itself is skipped
        for pid, pipe in children.values():
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)


def monte_carlo_mse(config: ExperimentConfig, workers: int = 1) -> MseCurve:
    """Estimate the per-step mean squared tracking error by replication.

    Each block of up to ``BLOCK_SIZE`` replications is sampled, smoothed
    and squared in one stream-major array by ``_run_block``; replication r
    still draws from its own ``child_seed`` stream.  A block's summary is
    (count, per-step means, per-step M2) with the tail mean as one more
    entry, and one Chan update folds the summaries in block order: the
    curve is the first T entries, ``tail_mean`` and ``tail_se`` the last.

    ``workers`` must be an integer >= 1.  ``_fork_map`` splits the blocks
    over n = min(workers, blocks, usable CPUs) processes: this one and n - 1
    forked children, worker i taking blocks i, i + n, ...  On a platform
    without ``os.fork`` or in a process already running other threads n is
    1, and with n = 1 the blocks run serially here.  Either way the block
    summaries are folded in index order, so the result is bitwise the same
    for every worker count.  A failed worker raises ChildProcessError.
    A block of horizon x min(replications, BLOCK_SIZE) cells above
    ``MAX_CELLS`` is rejected before anything is allocated.
    """
    workers = check_count(workers, "workers", 1)
    horizon, reps = config.horizon, config.replications
    cells = horizon * min(reps, BLOCK_SIZE)
    if cells > MAX_CELLS:
        raise ValueError(
            f"experiment size {horizon} x {reps} puts {cells} cells in one block (about "
            f"{8 * cells / 1e6:.0f} MB at peak), over the cap of {MAX_CELLS} cells"
        )
    blocks = [range(s, min(s + BLOCK_SIZE, reps)) for s in range(0, reps, BLOCK_SIZE)]
    _, mean, m2 = functools.reduce(
        _combine, _fork_map(functools.partial(_run_block, config), blocks, workers)
    )
    stderr = np.sqrt(m2 / (reps - 1) / reps) if reps > 1 else np.zeros(horizon + 1)
    tail_idx = _tail_index(config)
    return MseCurve(mean[:-1], stderr[:-1], float(mean[-1]), float(stderr[-1]),
                    float(mean[tail_idx:-1].max()), tail_idx + 1, reps)


@dataclass(frozen=True)
class BoundCheck:
    """The curve's tail against the bound at ``k``, the trend increment bound
    ``verify_bound`` measured: ``margin`` is bound.total + 3 * tail_se -
    tail_mean, and ``verdict`` is "PASS", "FAIL" or "INCONCLUSIVE"."""

    verdict: str
    k: float
    bound: BoundReport
    margin: float
    curve: MseCurve


def _increment_bound(levels: np.ndarray) -> float:
    """The largest one-step increment of the float trend ``levels``, rounded
    up one ulp: a float difference is correctly rounded, so it can land up
    to half an ulp below the real increment it stands for.  A difference of
    0.0 is exact, since two doubles differ only if their difference is
    nonzero, so a constant trend gives 0.0."""
    largest = float(np.abs(np.diff(levels)).max())
    return math.nextafter(largest, math.inf) if largest else 0.0


def verify_bound(config: ExperimentConfig, *, workers: int = 1) -> BoundCheck:
    """Run the experiment and compare its tail MSE against the bound at K,
    the increment bound of the trend the replications run on, measured
    before any replication runs.  ``workers`` is passed to
    ``monte_carlo_mse``.  At least 2 replications are needed: one has no
    spread, so its tail_se of 0 is no estimate and the check would have no
    allowance to judge by.  The verdict is FAIL unless margin >= 0 (a NaN
    margin fails); else INCONCLUSIVE when tail_se > 0 and 3 * tail_se >=
    bound.total, as a tail of twice the bound would have passed too; else
    PASS.  A zero tail_se (identical replications) leaves no allowance."""
    if config.replications < 2:
        raise ValueError(
            f"verify needs at least 2 replications to estimate the tail's standard "
            f"error, got {config.replications}"
        )
    k = _increment_bound(trend_sequence(config.trend, config.horizon))
    report = tracking_bound(config.alpha, config.noise, k)
    curve = monte_carlo_mse(config, workers=workers)
    allowance = 3.0 * curve.tail_se
    margin = report.total + allowance - curve.tail_mean
    if not margin >= 0.0:
        verdict = "FAIL"
    elif curve.tail_se > 0.0 and allowance >= report.total:
        verdict = "INCONCLUSIVE"
    else:
        verdict = "PASS"
    return BoundCheck(verdict, k, report, margin, curve)


@dataclass(frozen=True)
class SmoothedPath:
    """Aligned simulation output: at step t the observation x_t, the trend
    m*_t, and the post-update estimate m_{t+1}."""

    observations: np.ndarray
    trend: np.ndarray
    estimates: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.observations) == len(self.trend) == len(self.estimates)):
            raise ValueError("smoothed path series must have equal lengths")
        self.observations.flags.writeable = False
        self.trend.flags.writeable = False
        self.estimates.flags.writeable = False

    @property
    def steps(self) -> np.ndarray:
        return np.arange(1, len(self.observations) + 1)


def simulate_smoothed(
    noise: NoiseModel,
    trend: TrendSpec,
    alpha: float,
    horizon: int,
    seed: int,
    init: InitPolicy = "first",
) -> SmoothedPath:
    """Simulate one path and smooth it, returning the aligned view."""
    m_star = trend_sequence(trend, horizon)
    observations = _sample(noise, m_star, [seed])[0]
    return SmoothedPath(observations, m_star, ses_run(observations, alpha, init)[1:])

