"""Asymptotic tracking bound and exact finite-time error recursions.

For a smoothing parameter alpha in (0, 1), noise autocovariance gamma and a
trend whose one-step increments are bounded by K, the long-run mean squared
tracking error E[(m_{t+1} - m*_t)^2] is asymptotically at most

    alpha/(2-alpha) * gamma(0)                        variance of the observations
  + 2*alpha/(2-alpha) * sum_{k>=1} gamma(k) * beta^k  correlation structure
  + (beta/alpha)^2 * K^2                              dynamics of the trend

with beta = 1 - alpha.  ``tracking_bound`` evaluates the three terms,
``optimize_alpha`` minimizes their total over alpha, and
``exact_mse_sequence`` / ``closed_form_mse`` provide the exact finite-time
second moments D_t = E[(m_t - m*_{t-1})^2] whose limit the bound caps.  For
trends with constant one-step increment the bound is attained in the limit,
which the test suite exploits.

Initial-condition modes for the recursion: "paper" starts from D_1 = 0,
modelling a deterministic first estimate equal to the initial trend value;
"variance" starts from D_1 = gamma(0), matching a first estimate set to the
first observation.  The recursion is exact for any deterministic first
estimate whatever the noise.  For the first-observation start it is only
asymptotically exact: the derivation drops cov(m_1, x_t) terms, and even
for white noise the t = 1 instance of that term contributes
2 alpha beta gamma(0), which then decays through the recursion as
beta^(2t).  Monte Carlo oracle comparisons should therefore use a
deterministic init; all init choices share the same limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import Autocovariance, TrendSpec, trend_sequence
from .smoothing import check_alpha

SERIES_LAG_CAP = 10**6
GRID_POINTS = 1024

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoundReport:
    """Three-term decomposition of the asymptotic tracking bound.

    ``truncation_lag`` is the last lag summed when the correlation tail was
    truncated numerically (0 when a closed form was used), and
    ``truncation_residual_bound`` bounds the dropped remainder by
    gamma(0) * beta^(lag+1) / (1 - beta).
    """

    alpha: float
    variance_term: float
    correlation_term: float
    trend_term: float
    total: float
    truncation_lag: int
    truncation_residual_bound: float


def _weighted_tail_series(
    gamma: Autocovariance, beta: float, tol: float
) -> tuple[float, int, float]:
    # |gamma(k)| <= gamma(0) bounds every dropped term, so stopping once the
    # geometric remainder gamma(0) beta^(lag+1) / (1 - beta) falls below
    # tol * gamma(0) never cuts off mass hidden behind a zero lag
    g0 = gamma(0)
    threshold = tol * g0
    total = 0.0
    power = 1.0
    lag = 0
    while lag < SERIES_LAG_CAP:
        lag += 1
        power *= beta
        total += gamma(lag) * power
        residual = g0 * power * beta / (1.0 - beta)
        if residual <= threshold:
            break
    return total, lag, residual


def tracking_bound(
    alpha: float,
    gamma: Autocovariance,
    lipschitz: float,
    *,
    tol: float = 1e-14,
    method: str = "auto",
) -> BoundReport:
    """Evaluate the asymptotic tracking bound for the given configuration.

    ``method`` selects how the correlation tail sum_{k>=1} gamma(k) beta^k
    is computed: "auto" prefers the model's closed form when one exists,
    "closed" demands it, "series" forces truncated summation (terms are
    accumulated until the remainder bound gamma(0) beta^(k+1) / (1 - beta)
    is <= tol * gamma(0), capped at 10^6 lags).
    """
    alpha = check_alpha(alpha)
    lipschitz = float(lipschitz)
    if not (math.isfinite(lipschitz) and lipschitz >= 0.0):
        raise ValueError(f"trend increment bound must be finite and >= 0, got {lipschitz}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"truncation tolerance must be > 0, got {tol}")
    if method not in ("auto", "closed", "series"):
        raise ValueError(f'method must be "auto", "closed" or "series", got {method!r}')

    beta = 1.0 - alpha
    g0 = gamma(0)
    if not (math.isfinite(g0) and g0 >= 0.0):
        raise ValueError(f"gamma(0) must be finite and >= 0, got {g0}")

    if method != "series" and gamma.weighted_tail is not None:
        tail = float(gamma.weighted_tail(beta))
        lag, residual = 0, 0.0
    elif method == "closed":
        raise ValueError("no closed-form correlation tail available for this autocovariance")
    else:
        tail, lag, residual = _weighted_tail_series(gamma, beta, tol)

    front = alpha / (2.0 - alpha)
    variance_term = front * g0
    correlation_term = 2.0 * front * tail
    trend_term = (beta / alpha) ** 2 * lipschitz**2
    total = variance_term + correlation_term + trend_term
    return BoundReport(alpha, variance_term, correlation_term, trend_term, total, lag, residual)


def _mse_step(
    a: float, variance: float, step: int, mse: float, mean_error: float,
    weighted: float, k: float, gamma_next: float,
) -> tuple[float, float, float]:
    """One step t -> t+1 of the exact recursion on floats; returns the new
    (mse, mean_error, weighted_gamma_sum).  See ``MseRecursionState``."""
    b = 1.0 - a
    mse = (
        b * b * (mse + k * k - 2.0 * k * mean_error)
        + 2.0 * a * a * weighted
        - a * a * variance
    )
    return mse, b * (mean_error - k), weighted + b**step * gamma_next


@dataclass(frozen=True)
class MseRecursionState:
    """State of the exact second-moment recursion at step t.

    ``mse`` is D_t = E[(m_t - m*_{t-1})^2], ``mean_error`` is
    v_t = E[m_t - m*_{t-1}] and ``weighted_gamma_sum`` is
    sum_{k=0}^{t-1} beta^k gamma(k), the series the squared recursion
    consumes.  The discounted trend-increment sum appears implicitly:
    v_t = -sum_{h<t} beta^(t-h) K_h.
    """

    alpha: float
    variance: float
    step: int
    mse: float
    mean_error: float
    weighted_gamma_sum: float

    def advance(self, trend_increment: float, gamma_next: float) -> "MseRecursionState":
        """Step t -> t+1.  ``trend_increment`` is K_t = m*_t - m*_{t-1} and
        ``gamma_next`` is gamma(t), the lag entering the next weighted sum."""
        mse, mean_error, weighted = _mse_step(
            self.alpha, self.variance, self.step, self.mse, self.mean_error,
            self.weighted_gamma_sum, trend_increment, gamma_next,
        )
        return MseRecursionState(
            self.alpha, self.variance, self.step + 1, mse, mean_error, weighted
        )


def initial_mse_state(
    alpha: float, gamma: Autocovariance, d1: str = "paper"
) -> MseRecursionState:
    """Starting state of the recursion; see the module docstring for the
    two d1 modes."""
    alpha = check_alpha(alpha)
    g0 = gamma(0)
    if d1 == "paper":
        mse = 0.0
    elif d1 == "variance":
        mse = g0
    else:
        raise ValueError(f'd1 must be "paper" or "variance", got {d1!r}')
    return MseRecursionState(alpha, g0, 1, mse, 0.0, g0)


def exact_mse_sequence(
    alpha: float,
    gamma: Autocovariance,
    trend: TrendSpec,
    horizon: int,
    d1: str = "paper",
) -> np.ndarray:
    """Evolve D_1 .. D_{horizon+1} exactly, in O(1) work per step.

    The trend enters through its one-step increments K_t, with the
    convention m*_0 := m*_1 so that K_1 = 0.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    increments = np.concatenate(([0.0], np.diff(trend_sequence(trend, horizon))))
    state = initial_mse_state(alpha, gamma, d1)
    a, g0 = state.alpha, state.variance
    mse, mean_error, weighted = state.mse, state.mean_error, state.weighted_gamma_sum
    out = np.empty(horizon + 1)
    out[0] = mse
    # a memoryview yields Python floats without materializing them all
    for t, k_t in enumerate(memoryview(increments), start=1):
        mse, mean_error, weighted = _mse_step(a, g0, t, mse, mean_error, weighted, k_t, gamma(t))
        out[t] = mse
    return out


def closed_form_mse(
    alpha: float, gamma: Autocovariance, trend: TrendSpec, step: int
) -> float:
    """Evaluate D_step from the non-recursive representation

        D_t = (sum_{h=1}^{t-1} beta^(t-h) K_h)^2
            + 2 a^2 sum_{k=0}^{t-2} gamma(k) beta^k * sum_{i=0}^{t-2-k} beta^(2i)
            - a^2 gamma(0) * sum_{i=0}^{t-2} beta^(2i),

    independent of the recursion in exact_mse_sequence.  The trend part is
    evaluated in the damped regrouped form shown, never as beta^(2t) times
    a sum of growing beta^(-h) factors, so it stays stable at any t.
    """
    alpha = check_alpha(alpha)
    t = int(step)
    if t < 1:
        raise ValueError(f"step must be >= 1, got {t}")
    beta = 1.0 - alpha
    a2 = alpha * alpha
    geom = 1.0 - beta * beta

    trend_part = 0.0
    if t >= 3:
        levels = trend_sequence(trend, t - 1)
        folded = 0.0
        # Horner fold: after h = 2..t-1, folded = sum_h beta^(t-1-h) K_h
        for h in range(2, t):
            folded = beta * folded + (levels[h - 1] - levels[h - 2])
        trend_part = (beta * folded) ** 2

    noise_part = 0.0
    if t >= 2:
        lags = np.arange(t - 1)
        gammas = np.array([gamma(int(k)) for k in lags])
        inner = (1.0 - beta ** (2.0 * (t - 1 - lags))) / geom
        noise_part = 2.0 * a2 * float(np.sum(gammas * beta**lags * inner))
        noise_part -= a2 * gamma(0) * (1.0 - beta ** (2.0 * (t - 1))) / geom
    return trend_part + noise_part


@dataclass(frozen=True)
class AlphaSearchResult:
    """Outcome of the bound minimization over alpha."""

    alpha: float
    report: BoundReport
    degenerate: bool = False


def _golden_section_min(f, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:  # ties keep the lower interval
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    # monotone objectives finish flush against a bracket edge; keep whichever
    # of the original endpoints and the interior candidate is best, the
    # smaller alpha winning ties
    best = min(((f(x), x) for x in (lo, mid, hi)), key=lambda p: (p[0], p[1]))
    return best[1]


def optimize_alpha(
    gamma: Autocovariance,
    lipschitz: float,
    *,
    search_tol: float = 1e-6,
) -> AlphaSearchResult:
    """Minimize the bound total over alpha in (0, 1).

    A 1024-point coarse grid locates the best bracket, golden-section search
    refines it to ``search_tol``; ties resolve toward smaller alpha.  With
    no noise and a static trend the objective is identically zero: the
    smallest grid point is returned with ``degenerate`` set.
    """

    def objective(a: float) -> float:
        return tracking_bound(a, gamma, lipschitz).total

    grid = np.linspace(0.0, 1.0, GRID_POINTS + 2)[1:-1]
    values = np.array([objective(a) for a in grid])
    best = int(np.argmin(values))  # first minimum, i.e. smaller alpha on ties

    if gamma(0) == 0.0 and float(lipschitz) == 0.0:
        alpha_star = float(grid[0])
        return AlphaSearchResult(
            alpha_star, tracking_bound(alpha_star, gamma, lipschitz), True
        )

    lo = float(grid[best - 1]) if best > 0 else float(grid[0])
    hi = float(grid[best + 1]) if best + 1 < len(grid) else float(grid[-1])
    alpha_star = float(_golden_section_min(objective, lo, hi, search_tol))
    return AlphaSearchResult(
        alpha_star, tracking_bound(alpha_star, gamma, lipschitz), False
    )
