"""Constant-rate exponential smoothing and its gradient-step relatives.

The update is applied in the gradient form ``m <- m + alpha * (x - m)``
rather than the algebraically equal ``(1 - alpha) * m + alpha * x``: in
floating point the gradient form has an exact fixed point at m = x and
never leaves the interval spanned by m and x.  It is also literally the
expression produced by a constant-rate ascent step on a Gaussian
log-likelihood (``gaussian_model``) and by the gradient selection of the
quadratic cost (``quadratic_loss_model``), so those step rules share the
smoothing arithmetic bit for bit where the algebra says they coincide.

Trajectories carry T + 1 estimates so that the post-update estimate
``m_{t+1}`` can be paired with the trend value ``m*_t``, which is the
alignment the tracking analysis uses.

Many series are smoothed at once by one row recursion over a time-major
block, one ufunc step per time index with ses_run's arithmetic, so each
column is bitwise its own ses_run: a Monte Carlo block runs it slab by
slab, carrying the estimate row from one slab to the next.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Union

from ._numpy import np
from .seeding import check_count, is_integer

InitPolicy = Union[str, float]  # "first" or a fixed initial estimate
INIT_WORDING = '"first" or a number'  # what every init error message says is allowed


def check_alpha(alpha: float) -> float:
    """Validate a smoothing parameter, a number (not a string) in the open
    interval (0, 1); returned as a float."""
    if isinstance(alpha, str):
        raise ValueError(f"smoothing parameter must be a number, got {alpha!r}")
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"smoothing parameter must lie strictly in (0, 1), got {alpha}")
    return alpha


def check_init(init: InitPolicy) -> InitPolicy:
    """Validate an initial-estimate policy: the string "first" or a finite
    number (a bool is not one), returned as "first" or a float."""
    if isinstance(init, (str, bool, np.bool_)):
        if init != "first":
            raise ValueError(f"init must be {INIT_WORDING}, got {init!r}")
        return init
    value = float(init)
    if not math.isfinite(value):
        raise ValueError(f"init must be finite, got {value}")
    return value


@dataclass(frozen=True)
class SmootherState:
    """Current estimate m_t together with its smoothing parameter and step."""

    estimate: float
    alpha: float
    step: int = 1

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        m = self.estimate
        if isinstance(m, bool) or not (isinstance(m, numbers.Real) and math.isfinite(m)):
            raise ValueError(f"estimate must be a finite number, got {m!r}")
        check_count(self.step, "step", 1)


def ses_step(state: SmootherState, x: float) -> SmootherState:
    """One smoothing update on observation ``x``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"observation must be finite, got {x}")
    new = state.estimate + state.alpha * (x - state.estimate)
    return SmootherState(new, state.alpha, state.step + 1)


def _initial_estimates(init: InitPolicy, first: np.ndarray) -> np.ndarray:
    init = check_init(init)
    return first.copy() if init == "first" else np.full_like(first, init)


def _check_observations(observations) -> np.ndarray:
    x = np.asarray(observations, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("observations must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must all be finite")
    return x


def ses_run(observations, alpha: float, init: InitPolicy = "first") -> np.ndarray:
    """Smooth a series, returning estimates m_1 .. m_{T+1}.

    ``init`` picks m_1: the string "first" uses the first observation, a
    number fixes it directly (the convention some published runs use, e.g.
    starting the recursion at 8 regardless of the data).
    """
    x = _check_observations(observations)
    alpha = check_alpha(alpha)

    def estimates(m):
        yield m
        for xt in memoryview(x):  # Python floats: numpy's arithmetic, less overhead
            m = m + alpha * (xt - m)
            yield m

    first = float(_initial_estimates(init, x[:1])[0])
    return np.fromiter(estimates(first), float, len(x) + 1)


def _recursion(rows: np.ndarray, previous: np.ndarray, alpha: float) -> None:
    """Smooth the time-major ``rows`` in place, one row per step, starting
    from the estimate row ``previous``: row t becomes
    ``previous + alpha * (row - previous)`` and is the next ``previous``."""
    for row in rows:
        np.subtract(row, previous, out=row)
        np.multiply(row, alpha, out=row)
        np.add(row, previous, out=row)
        previous = row


def ses_closed_form(
    observations, alpha: float, initial_estimate: float, step: int
) -> float:
    """Evaluate m_step directly from the geometric-weight solution.

    With beta = 1 - alpha,

        m_t = beta^(t-1) * m_1 + alpha * sum_{j=1}^{t-1} beta^(t-1-j) * x_j,

    computed by direct summation, independent of the recursion in ses_run.
    Valid for an integer 1 <= step <= T + 1.
    """
    x = _check_observations(observations)
    alpha = check_alpha(alpha)
    if not is_integer(step):
        raise ValueError(f"step must be an integer, got {step!r}")
    t = int(step)
    if not 1 <= t <= len(x) + 1:
        raise IndexError(f"step must lie in [1, {len(x) + 1}], got {t}")
    beta = 1.0 - alpha
    # exponents t-1-j for j = 1..t-1, oldest observation first
    powers = beta ** np.arange(t - 2, -1, -1, dtype=float)
    return float(beta ** (t - 1) * float(initial_estimate) + alpha * (powers @ x[: t - 1]))


@dataclass(frozen=True)
class LogDensityModel:
    """Location model for gradient steps.

    ``score(x, m)`` is d/dm ln p(x - m) for the noise density p;
    ``step_size`` is the constant effective rate multiplying the score.
    ``log_density(x, m)``, when provided, lets callers validate the score by
    finite differences.
    """

    score: Callable[[float, float], float]
    step_size: float
    log_density: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError(f"step size must be finite and > 0, got {self.step_size}")


def gaussian_model(variance: float, alpha: float) -> LogDensityModel:
    """Gaussian location score (x - m) / variance with rate alpha * variance.

    Setting ``variance`` to the noise variance gamma(0) makes the ascent
    step reproduce ses_step: the variance cancels against the rate.
    """
    variance = float(variance)
    if not (math.isfinite(variance) and variance > 0.0):
        raise ValueError(f"variance must be finite and > 0, got {variance}")
    alpha = check_alpha(alpha)
    half_log_norm = 0.5 * math.log(2.0 * math.pi * variance)

    def score(x: float, m: float) -> float:
        return (x - m) / variance

    def log_density(x: float, m: float) -> float:
        return -0.5 * (x - m) ** 2 / variance - half_log_norm

    return LogDensityModel(score, alpha * variance, log_density)


def quadratic_loss_model(alpha: float) -> LogDensityModel:
    """Descent on the quadratic cost 0.5 * E[(m - x)^2] with the gradient
    replaced by its random selection; the step direction is (x - m)."""
    alpha = check_alpha(alpha)
    return LogDensityModel(lambda x, m: x - m, alpha)


def sga_step(state: SmootherState, model: LogDensityModel, x: float) -> SmootherState:
    """One constant-rate gradient-ascent step on the model's log-density."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"observation must be finite, got {x}")
    g = float(model.score(x, state.estimate))
    if not math.isfinite(g):
        raise ValueError(f"score is not finite at (x={x}, m={state.estimate})")
    return SmootherState(state.estimate + model.step_size * g, state.alpha, state.step + 1)
