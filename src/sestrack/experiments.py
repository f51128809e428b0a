"""Seeded Monte Carlo experiments over simulated trend-stationary paths.

Replication ``r`` of an experiment with master seed ``s`` simulates its
path from the child seed ``child_seed(s, r)``.  Replications are processed
in fixed blocks of ``BLOCK_SIZE``.  Each block lives in one stream-major
array, one row per replication, and is sampled, smoothed and squared in
cache-sized time slabs.  Blocks share nothing, so ``monte_carlo_mse`` may
run them on forked worker processes through ``_fork_map``, the package's one
parallel path (``dataio`` formats a CSV's chunks through it too),
which hands results back in item order; block summaries are thus always
combined in index order, so every statistic depends on the config alone,
never on the worker count.  Squared errors follow the delayed pairing of
the tracking analysis: the error at step t is ``m_{t+1} - m*_t``.

This module computes results and writes no files; ``dataio`` writes them
(and holds ``reproduce_figure``), and nothing here imports it.
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
from .processes import (
    AR1,
    MA1,
    Linear,
    NoiseModel,
    Sinusoid,
    TrendSpec,
    _check_fields,
    _key,
    _path,
    _slabs,
    trend_sequence,
)
from .seeding import check_count, check_seed, child_seeds
from .smoothing import (
    INIT_WORDING,
    InitPolicy,
    _initial_estimates,
    _recursion,
    check_alpha,
    ses_run,
)

BLOCK_SIZE = 1024
MAX_CELLS = 2 * 10**7  # cells of one block, horizon x min(reps, BLOCK_SIZE); ~8 B each at peak
_SIGKILL = 9  # fixed by POSIX; spares importing the signal module

DEFAULT_FIGURE_SEED = 1729
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
class ExperimentConfig:
    """Everything a replicated tracking experiment needs.

    Each field states its config key and, if it has one, its CLI flag and
    help once, in its ``_key`` metadata; the config codec and the CLI's run
    flags derive from it, and take their defaults from here."""

    noise: NoiseModel = _key("noise", flag=("--noise", "noise spec (see grammar)"))
    trend: TrendSpec = _key("trend", flag=("--trend", "trend spec (see grammar)"))
    alpha: float = _key("alpha", flag=("--alpha", "smoothing parameter in (0,1)"))
    horizon: int = _key("horizon", flag=("--steps", "horizon T"))
    replications: int = _key("replications", flag=("--reps", "replications"))
    seed: int = _key("seed", flag=("--seed", "64-bit seed"))
    init: InitPolicy = _key("init", "first",
                            flag=("--init", f"initial estimate: {INIT_WORDING}"))
    tail_fraction: float = _key("tail_fraction", 0.1)

    def __post_init__(self) -> None:
        _check_fields(self)
        check_alpha(self.alpha)
        check_count(self.horizon, "horizon", 2)
        check_count(self.replications, "replications", 1)
        check_seed(self.seed)
        if not (0.0 < self.tail_fraction <= 1.0):
            raise ValueError(f"tail fraction must lie in (0, 1], got {self.tail_fraction}")


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


@dataclass(frozen=True)
class _BlockMoments:
    count: int
    mean: np.ndarray  # per-step mean of squared errors
    m2: np.ndarray  # per-step sum of squared deviations
    tail_mean: float
    tail_m2: float


def _moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and sums of squared deviations; overwrites ``values``."""
    mean = values.mean(axis=0)
    values -= mean
    np.square(values, out=values)
    return mean, values.sum(axis=0)


def _combine(total: _BlockMoments, block: _BlockMoments) -> _BlockMoments:
    n1, n2 = total.count, block.count
    n = n1 + n2
    delta = block.mean - total.mean
    mean = total.mean + delta * (n2 / n)
    m2 = total.m2 + block.m2 + np.square(delta) * (n1 * n2 / n)
    tdelta = block.tail_mean - total.tail_mean
    tail_mean = total.tail_mean + tdelta * (n2 / n)
    tail_m2 = total.tail_m2 + block.tail_m2 + tdelta * tdelta * (n1 * n2 / n)
    return _BlockMoments(n, mean, m2, tail_mean, tail_m2)


def _tail_index(config: ExperimentConfig) -> int:
    """Index of the first step of the tail window in a per-step array."""
    return config.horizon - max(1, math.ceil(config.tail_fraction * config.horizon))


def _run_block(config: ExperimentConfig, block: range) -> _BlockMoments:
    """Moments of the squared tracking errors of the replications in ``block``.

    The block is one stream-major (B, T + extra draws) array: ``_slabs``
    draws replication i's normals into row i and hands back the observations
    slab by slab; each slab is smoothed from the estimate row carried over
    from the last, squared, and transposed back into the columns it came
    from.  The first T columns then hold the (B, T) squared errors."""
    horizon, alpha = config.horizon, check_alpha(config.alpha)
    trend = trend_sequence(config.trend, horizon)
    draws = np.empty((len(block), horizon + config.noise._extra_draws))
    estimate = None
    for t0, x in _slabs(config.noise, trend, child_seeds(config.seed, block), draws):
        if estimate is None:
            estimate = _initial_estimates(config.init, x[0])
        _recursion(x, estimate, alpha)
        estimate[...] = x[-1]
        x -= trend[t0 : t0 + len(x), None]
        np.square(x, out=x)
        draws[:, t0 : t0 + len(x)] = x.T
    squared = draws[:, :horizon]
    tails = squared[:, _tail_index(config) :].mean(axis=1)
    mean, m2 = _moments(squared)
    return _BlockMoments(
        len(block), mean, m2, float(tails.mean()), float(np.square(tails - tails.mean()).sum())
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _child(func, items, label: str, write: int):
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
        os.write(2, f"{label} worker (pid {os.getpid()}) failed: {exc!r}\n".encode())
    finally:
        os._exit(status)


def _fork_map(func, items, workers: int, label: str):
    """Yield ``func(item)`` for each of the sequence ``items``, in order,
    computed by n = min(workers, len(items), usable CPUs) processes: worker
    w computes items w, w + n, ...  Worker 0 is this process, computing
    each of its items one round ahead, so it seldom waits on the children;
    the others are forked children, each pickling its results into a pipe
    as it computes them, so it runs at most a pipe buffer ahead.  Without
    ``os.fork`` or beside other threads n is 1.  A child that fails or ends
    early raises ChildProcessError naming ``label``, the worker, its pid and
    wait status; one that the embedding program reaps is done if it has
    delivered every result, and failed if not.  However iteration ends
    (exhausted, failed or closed early), every child still running is
    killed and all are reaped."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    n = max(1, min(workers, len(items), _usable_cpus()))
    children = {}  # worker -> (pid, read end) of each child not yet reaped

    def reap(worker: int, ended: bool) -> None:
        pid, pipe = children[worker]
        pipe.close()
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # the embedding program reaped it
            status = None
        del children[worker]
        if status is None:
            if ended:  # every result arrived
                return
            raise ChildProcessError(f"{label} worker {worker} (pid {pid}) ended early "
                                    "and was reaped outside the map")
        code = os.waitstatus_to_exitcode(status)
        if code or not ended:  # a child that ends early failed, whatever its code
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise ChildProcessError(f"{label} worker {worker} (pid {pid}) {how}; wait status {status}")

    try:
        for worker in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(func, items[worker::n], label, write)
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
    still draws from its own ``child_seed`` stream.

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
    total = functools.reduce(
        _combine, _fork_map(functools.partial(_run_block, config), blocks, workers, "Monte Carlo")
    )

    tail_idx = _tail_index(config)
    if reps > 1:
        variance = np.maximum(total.m2 / (reps - 1), 0.0)
        stderr = np.sqrt(variance / reps)
        tail_se = math.sqrt(max(total.tail_m2 / (reps - 1), 0.0) / reps)
    else:
        stderr = np.zeros(horizon)
        tail_se = 0.0
    return MseCurve(
        total.mean,
        stderr,
        float(total.tail_mean),
        tail_se,
        float(total.mean[tail_idx:].max()),
        tail_idx + 1,
        reps,
    )


@dataclass(frozen=True)
class BoundCheck:
    """Empirical tail estimate against the asymptotic bound.

    Passing means empirical_tail <= bound.total + 3 * tail_se, i.e.
    ``margin`` >= 0, unless the check is ``inconclusive``: it would pass,
    but 3 * tail_se >= bound.total with tail_se > 0, so that a tail of twice
    the bound would have passed too.  An inconclusive check does not pass.
    A tail above bound.total + 3 * tail_se is a violation however wide the
    allowance, and a zero tail_se (every replication identical) leaves no
    allowance, so neither is inconclusive.
    """

    passed: bool
    empirical_tail: float
    tail_se: float
    bound: BoundReport
    margin: float
    curve: MseCurve
    inconclusive: bool


def verify_bound(config: ExperimentConfig, *, workers: int = 1) -> BoundCheck:
    """Run the experiment and compare its tail MSE against the bound at the
    trend's certified increment constant.  ``workers`` is passed to
    ``monte_carlo_mse``.  At least 2 replications are needed: one has no
    spread, so its tail_se of 0 is no estimate and the check would have no
    allowance to judge by."""
    if config.replications < 2:
        raise ValueError(
            f"verify needs at least 2 replications to estimate the tail's standard "
            f"error, got {config.replications}"
        )
    curve = monte_carlo_mse(config, workers=workers)
    report = tracking_bound(config.alpha, config.noise, config.trend.lipschitz_constant)
    allowance = 3.0 * curve.tail_se
    margin = report.total + allowance - curve.tail_mean
    inconclusive = margin >= 0.0 and curve.tail_se > 0.0 and allowance >= report.total
    return BoundCheck(
        margin >= 0.0 and not inconclusive,
        curve.tail_mean,
        curve.tail_se,
        report,
        margin,
        curve,
        inconclusive,
    )


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
    observations = _path(noise, m_star, seed)
    return SmoothedPath(observations, m_star, ses_run(observations, alpha, init)[1:])

