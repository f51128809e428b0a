"""Asymptotic tracking bound and exact finite-time error recursions.

For a smoothing parameter alpha in (0, 1), noise autocovariance gamma and a
trend whose one-step increments are bounded by K, the long-run mean squared
tracking error E[(m_{t+1} - m*_t)^2] is asymptotically at most

    alpha/(2-alpha) * gamma(0)                        variance of the observations
  + 2*alpha/(2-alpha) * sum_{k>=1} gamma(k) * beta^k  correlation structure
  + (beta/alpha)^2 * K^2                              dynamics of the trend

with beta = 1 - alpha.  ``tracking_bound`` evaluates the three terms,
taking the correlation sum in closed form exactly when the autocovariance
carries one (``weighted_tail``) and otherwise as a series truncated at
``SERIES_TOL`` relative to gamma(0).  ``optimize_alpha`` minimizes their
total over alpha, and ``exact_mse_sequence`` / ``closed_form_mse`` provide
the exact finite-time second moments D_t = E[(m_t - m*_{t-1})^2] whose
limit the bound caps.  For trends with constant one-step increment the
bound is attained in the limit, which the test suite exploits.

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
SERIES_TOL = 1e-14  # relative to gamma(0), where the series tail stops
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


def _weighted_tail_series(gamma: Autocovariance, beta: float) -> tuple[float, int, float]:
    # |gamma(k)| <= gamma(0) bounds every dropped term, so stopping once the
    # geometric remainder gamma(0) beta^(lag+1) / (1 - beta) falls below
    # SERIES_TOL * gamma(0) never cuts off mass hidden behind a zero lag
    g0 = gamma(0)
    threshold = SERIES_TOL * g0
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


def tracking_bound(alpha: float, gamma: Autocovariance, lipschitz: float) -> BoundReport:
    """Evaluate the asymptotic tracking bound for the given configuration.

    The correlation tail sum_{k>=1} gamma(k) beta^k is the closed form
    ``gamma.weighted_tail`` when that is set, and otherwise a truncated
    series: terms are accumulated until the remainder bound
    gamma(0) beta^(k+1) / (1 - beta) is <= SERIES_TOL * gamma(0), capped at
    SERIES_LAG_CAP lags.  ``Autocovariance(model.gamma)`` therefore sums any
    model's series.  A trend term that overflows is +inf, as is then the
    total.
    """
    alpha = check_alpha(alpha)
    lipschitz = float(lipschitz)
    if not (math.isfinite(lipschitz) and lipschitz >= 0.0):
        raise ValueError(f"trend increment bound must be finite and >= 0, got {lipschitz}")

    beta = 1.0 - alpha
    g0 = gamma(0)
    if not (math.isfinite(g0) and g0 >= 0.0):
        raise ValueError(f"gamma(0) must be finite and >= 0, got {g0}")

    if gamma.weighted_tail is not None:
        tail = float(gamma.weighted_tail(beta))
        lag, residual = 0, 0.0
    else:
        tail, lag, residual = _weighted_tail_series(gamma, beta)

    front = alpha / (2.0 - alpha)
    variance_term = front * g0
    correlation_term = 2.0 * front * tail
    try:
        trend_term = (beta / alpha) ** 2 * lipschitz**2
    except OverflowError:  # a float power raises where a float product gives inf
        trend_term = math.inf
    total = variance_term + correlation_term + trend_term
    return BoundReport(alpha, variance_term, correlation_term, trend_term, total, lag, residual)


def _mse_step(
    a: float, variance: float, step: int, mse: float, mean_error: float,
    weighted: float, k: float, gamma_next: float,
) -> tuple[float, float, float]:
    """One step t -> t+1 of the exact recursion on floats.

    At step t, ``mse`` is D_t = E[(m_t - m*_{t-1})^2], ``mean_error`` is
    v_t = E[m_t - m*_{t-1}] = -sum_{h<t} beta^(t-h) K_h and ``weighted`` is
    sum_{k=0}^{t-1} beta^k gamma(k); ``k`` is K_t = m*_t - m*_{t-1} and
    ``gamma_next`` is gamma(t).  Returns the three at step t + 1.
    """
    b = 1.0 - a
    mse = (
        b * b * (mse + k * k - 2.0 * k * mean_error)
        + 2.0 * a * a * weighted
        - a * a * variance
    )
    return mse, b * (mean_error - k), weighted + b**step * gamma_next


def exact_mse_sequence(
    alpha: float,
    gamma: Autocovariance,
    trend: TrendSpec,
    horizon: int,
    d1: str = "paper",
) -> np.ndarray:
    """Evolve D_1 .. D_{horizon+1} exactly, in O(1) work per step.

    The trend enters through its one-step increments K_t, with the
    convention m*_0 := m*_1 so that K_1 = 0.  The recursion starts from
    v_1 = 0 and D_1 set by ``d1`` (see the module docstring).
    """
    a = check_alpha(alpha)
    if d1 not in ("paper", "variance"):
        raise ValueError(f'd1 must be "paper" or "variance", got {d1!r}')
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    increments = np.concatenate(([0.0], np.diff(trend_sequence(trend, horizon))))
    g0 = gamma(0)
    mse, mean_error, weighted = (0.0 if d1 == "paper" else g0), 0.0, g0
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
    width = b - a
    while width > tol:
        if fc <= fd:  # ties keep the lower interval
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        if b - a >= width:  # rounding: the bracket no longer shrinks
            break
        width = b - a
    mid = 0.5 * (a + b)
    # monotone objectives finish flush against a bracket edge; keep whichever
    # of the original endpoints inside (0, 1) and the interior candidate is
    # best, the smaller alpha winning ties
    candidates = [x for x in (lo, mid, hi) if 0.0 < x < 1.0]
    best = min(((f(x), x) for x in candidates), key=lambda p: (p[0], p[1]))
    return best[1]


def optimize_alpha(
    gamma: Autocovariance,
    lipschitz: float,
    *,
    search_tol: float = 1e-6,
) -> AlphaSearchResult:
    """Minimize the bound total over alpha in (0, 1).

    A 1024-point coarse grid locates the best bracket, golden-section search
    refines it to ``search_tol``; ties resolve toward smaller alpha.  For
    lipschitz > 0 a best grid point at either end opens its bracket to that
    end of (0, 1), never evaluated itself; with lipschitz = 0 it stays on
    the grid.  With no noise and a static trend the objective is
    identically zero: the smallest grid point is returned with
    ``degenerate`` set.
    ``search_tol`` must be finite and > 0; the search also ends once
    rounding stops the bracket from shrinking.
    """
    if not (math.isfinite(search_tol) and search_tol > 0.0):
        raise ValueError(f"search tolerance must be finite and > 0, got {search_tol}")

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

    open_ends = float(lipschitz) > 0.0
    lo = float(grid[best - 1]) if best > 0 else 0.0 if open_ends else float(grid[0])
    hi = float(grid[best + 1]) if best + 1 < len(grid) else 1.0 if open_ends else float(grid[-1])
    alpha_star = float(_golden_section_min(objective, lo, hi, search_tol))
    return AlphaSearchResult(
        alpha_star, tracking_bound(alpha_star, gamma, lipschitz), False
    )
