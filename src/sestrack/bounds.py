"""Asymptotic tracking bound and exact finite-time error recursions.

For a smoothing parameter alpha in (0, 1), noise autocovariance gamma and a
trend whose one-step increments are bounded by K, the long-run mean squared
tracking error E[(m_{t+1} - m*_t)^2] is asymptotically at most

    alpha/(2-alpha) * gamma(0)                        variance of the observations
  + 2*alpha/(2-alpha) * sum_{k>=1} gamma(k) * beta^k  correlation structure
  + (beta/alpha)^2 * K^2                              dynamics of the trend

with beta = 1 - alpha.  Each of these functions takes the noise model
itself.  ``tracking_bound`` evaluates the three terms, taking the
correlation sum as a finite sum up to the model's ``support`` (white, MA(1),
MA(q)), in closed form (AR(1)), or else, for a user-supplied
``Autocovariance``, as a series truncated at ``SERIES_TOL`` relative to
gamma(0); a series that would need more than ``SERIES_LAG_CAP`` lags raises
rather than understate the bound.  ``optimize_alpha`` minimizes the total
over alpha.  ``exact_mse_sequence`` evolves the exact finite-time second
moments D_t = E[(m_t - m*_{t-1})^2] whose limit the bound caps, exact at
every step for each start of the smoother and any noise, and
``closed_form_mse`` is the independent oracle of the paper's start
m_1 = m*_1.  For trends with constant one-step increment the bound is
attained in the limit, which the test suite exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .processes import Autocovariance, NoiseModel, TrendSpec, _finite_nonnegative, trend_sequence
from .seeding import _number, check_count
from .smoothing import InitPolicy, check_alpha, check_init

SERIES_LAG_CAP = 10**6
SERIES_TOL = 1e-14  # relative to gamma(0), where the series tail stops
GRID_POINTS = 1024

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class _CapError(ValueError):
    """The correlation series would need more than SERIES_LAG_CAP lags."""


@dataclass(frozen=True)
class BoundReport:
    """Three-term decomposition of the asymptotic tracking bound.

    ``truncation_lag`` is the last lag summed when the correlation tail was
    truncated numerically (0 when a finite sum or closed form was used), and
    ``truncation_residual_bound`` bounds the dropped remainder by
    gamma(0) * beta^(lag+1) / alpha.  ``total`` is the three terms plus
    2 * alpha/(2-alpha) * truncation_residual_bound, so a truncated series
    never leaves the dropped remainder out of the bound.
    """

    alpha: float
    variance_term: float
    correlation_term: float
    trend_term: float
    total: float
    truncation_lag: int
    truncation_residual_bound: float


def _correlation_tail(noise, alpha: float, beta: float, g0: float) -> tuple[float, int, float]:
    """sum_{k>=1} gamma(k) beta^k, the last lag summed and the bound on the
    dropped remainder (0 and 0.0 when nothing is dropped)."""
    if noise.support is not None:
        terms = (noise.gamma(k) * beta**k for k in range(1, noise.support + 1))
        return float(sum(terms)), 0, 0.0
    if noise.closed_form_tail is not None:
        return float(noise.closed_form_tail(beta)), 0, 0.0
    # |gamma(k)| <= gamma(0) bounds every dropped term, so the remainder
    # after lag n is at most gamma(0) beta^(n+1) / alpha.  The least n that
    # puts it at SERIES_TOL * gamma(0) is ceil(needed) - 1; summing to
    # ceil(needed) keeps rounding in the logs from stopping one lag short.
    # With gamma(0) = 0 every lag is 0, and the rule stops at lag 1.
    log_beta = math.log1p(-alpha)
    needed = (math.log(SERIES_TOL) + math.log(alpha)) / log_beta if g0 else 1.0
    if needed > SERIES_LAG_CAP:
        raise _CapError(
            f"the correlation series at alpha={alpha} needs {needed:.4g} lags, more than "
            f"SERIES_LAG_CAP={SERIES_LAG_CAP}; stopping there would leave a residual of up "
            f"to {g0 * beta ** (SERIES_LAG_CAP + 1) / alpha:.4g}"
        )
    lags = math.ceil(needed)
    tail = float(noise.gammas(lags) @ np.exp(log_beta * np.arange(1.0, lags + 1)))
    return tail, lags, g0 * beta ** (lags + 1) / alpha


def _trend_term(ratio: float, lipschitz: float) -> float:
    """(beta/alpha)^2 K^2 for ``ratio`` = beta/alpha: 0.0 for K = 0, never
    0.0 for K > 0, and finite whenever the real value is.  Where both
    squares are normal doubles (x^2 is one just for x in [2^-511, 2^512))
    it is their product; else a square would leave the double range and
    decide the term, so the ratio is scaled by K before squaring."""
    if lipschitz == 0.0:
        return 0.0
    if 2.0**-511 <= ratio < 2.0**512 and 2.0**-511 <= lipschitz < 2.0**512:
        term = ratio**2 * lipschitz**2
    else:
        try:
            term = (ratio * lipschitz) ** 2
        except OverflowError:  # a float power raises where a float product gives inf
            return math.inf
    return term or math.nextafter(0.0, 1.0)


def tracking_bound(
    alpha: float, noise: NoiseModel | Autocovariance, lipschitz: float
) -> BoundReport:
    """Evaluate the asymptotic tracking bound for the given configuration.

    The correlation tail sum_{k>=1} gamma(k) beta^k is a finite sum when
    ``noise.support`` is set, ``noise.closed_form_tail`` when that is set,
    and otherwise a truncated series: terms are summed until the remainder
    bound gamma(0) beta^(k+1) / alpha is <= SERIES_TOL * gamma(0).  When
    that takes more than SERIES_LAG_CAP lags it raises ValueError, before
    summing any.  ``Autocovariance(model.gamma)`` therefore sums any model's
    series.  The total adds the correlation term's share of that remainder
    bound, 2 * alpha/(2-alpha) * residual, to the three terms; it is 0.0 for
    a finite sum or a closed form.  The trend term is 0.0 only for K = 0;
    it is finite whenever its real value is, and +inf, as is then the total,
    when that overflows.
    """
    alpha = check_alpha(alpha)
    lipschitz = _finite_nonnegative(_number(lipschitz, float, "lipschitz"), "trend increment bound")

    beta = 1.0 - alpha
    g0 = _finite_nonnegative(noise.gamma(0), "gamma(0)")
    tail, lag, residual = _correlation_tail(noise, alpha, beta, g0)

    front = alpha / (2.0 - alpha)
    variance_term = front * g0
    correlation_term = 2.0 * front * tail
    trend_term = _trend_term(beta / alpha, lipschitz)
    total = variance_term + correlation_term + trend_term + 2.0 * front * residual
    return BoundReport(alpha, variance_term, correlation_term, trend_term, total, lag, residual)


def exact_mse_sequence(
    alpha: float,
    noise: NoiseModel | Autocovariance,
    trend: TrendSpec,
    horizon: int,
    init: InitPolicy | None = None,
) -> np.ndarray:
    """Evolve D_1 .. D_{horizon+1} exactly, in O(1) work per step, for the
    smoother started at ``init`` as ``ses_run`` takes it ("first" or a
    number), or at the paper's m_1 = m*_1 when ``init`` is None.

    With K_t = m*_t - m*_{t-1} (m*_0 := m*_1, so K_1 = 0), step t is
    D_{t+1} = beta^2 (D_t + K_t^2 - 2 K_t v_t) + 2 a^2 W_t - a^2 gamma(0),
    v_{t+1} = beta (v_t - K_t) and W_{t+1} = W_t + beta^t gamma(t), from
    W_1 = gamma(0).  A number c starts from D_1 = e^2 and v_1 = e, with
    e = c - m*_1.  "first" (m_1 = x_1) starts from D_1 = gamma(0) and
    v_1 = 0, and its step t adds 2 a beta^t gamma(t-1).  Past the model's
    ``support`` (one lag later for "first") the steps run on hoisted
    floats, in the same operations and order.
    """
    a = check_alpha(alpha)
    horizon = check_count(horizon, "horizon", 1)
    levels = trend_sequence(trend, horizon)
    init = init if init is None else check_init(init)
    first = init == "first"
    error = 0.0 if init is None or first else init - float(levels[0])
    levels[1:], levels[0] = np.diff(levels), 0.0  # into K_1 = 0, K_2 .. K_T, in place
    # a memoryview yields Python floats without materializing them all
    increments = memoryview(levels)
    gamma = noise.gamma
    g0 = _finite_nonnegative(gamma(0), "gamma(0)")
    b, two_a2, a2_g0, lead = 1.0 - a, 2.0 * a * a, a * a * g0, 2.0 * a * first
    bb = b * b  # b * b * x multiplies (b * b) first, so bb * x is the same float
    varying = horizon if noise.support is None else min(noise.support + first, horizon)

    def steps(mse, mean_error, weighted, lagged):  # lagged: gamma(t - 1)
        yield mse
        for t in range(1, varying + 1):
            k, decay = increments[t - 1], b**t
            mse = bb * (mse + k * k - 2.0 * k * mean_error) + two_a2 * weighted - a2_g0
            mse += lead * decay * lagged
            yield mse
            mean_error = b * (mean_error - k)
            lagged = gamma(t)
            weighted += decay * lagged
        noise_part = two_a2 * weighted
        for k in increments[varying:]:
            mse = bb * (mse + k * k - 2.0 * k * mean_error) + noise_part - a2_g0
            yield mse
            mean_error = b * (mean_error - k)

    # given its count, fromiter allocates the output once
    return np.fromiter(steps(g0 if first else error * error, error, g0, g0), float, horizon + 1)


def closed_form_mse(
    alpha: float, noise: NoiseModel | Autocovariance, trend: TrendSpec, step: int
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
    t = check_count(step, "step", 1)
    g0 = _finite_nonnegative(noise.gamma(0), "gamma(0)")
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
        gammas = np.array([noise.gamma(k) for k in range(t - 1)])
        inner = (1.0 - beta ** (2.0 * (t - 1 - lags))) / geom
        noise_part = 2.0 * a2 * float(np.sum(gammas * beta**lags * inner))
        noise_part -= a2 * g0 * (1.0 - beta ** (2.0 * (t - 1))) / geom
    return trend_part + noise_part


@dataclass(frozen=True)
class AlphaSearchResult:
    """Outcome of the bound minimization over alpha."""

    alpha: float
    report: BoundReport
    degenerate: bool = False


def _first_min(values: list[float]) -> int:
    """Index of the first smallest value, a NaN counting as smallest: the
    index ``np.argmin`` returns."""
    best = 0
    for i, value in enumerate(values):
        if math.isnan(value):
            return i
        if value < values[best]:
            best = i
    return best


def _golden_section_min(f, lo: float, hi: float) -> float:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    width = b - a
    # refine until rounding stops it: the bracket stops shrinking or the next
    # point is not strictly inside it, so the loop never evaluates an end
    while True:
        if fc <= fd:  # ties keep the lower interval
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            if not a < c < b:
                break
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            if not a < d < b:
                break
            fd = f(d)
        if b - a >= width:
            break
        width = b - a
    mid = 0.5 * (a + b)
    # an objective that is +inf below some alpha squeezes the bracket onto
    # that edge, and b is the end on its finite side
    if 0.0 < mid < b < 1.0 and f(mid) == math.inf > f(b):
        mid = b
    # monotone objectives finish flush against a bracket edge; keep whichever
    # of the original endpoints inside (0, 1) and the interior candidate is
    # best, the smaller alpha winning ties
    candidates = [x for x in (lo, mid, hi) if 0.0 < x < 1.0]
    return min((f(x), x) for x in candidates)[1]


def optimize_alpha(noise: NoiseModel | Autocovariance, lipschitz: float) -> AlphaSearchResult:
    """Minimize the bound total over alpha in (0, 1).

    A 1024-point coarse grid locates the best bracket, and golden-section
    search refines it until rounding stops it: the bracket no longer
    shrinks, or no new point lies strictly inside it.  Ties resolve toward
    smaller alpha, and alpha = 0 or 1 is never evaluated.  For
    lipschitz > 0 a best grid point at either end opens its bracket to that
    end of (0, 1), never evaluated itself; with lipschitz = 0 it stays on
    the grid.  With no noise and a static trend the objective is
    identically zero; the search itself returns its smallest grid point
    (ties go to smaller alpha) and sets ``degenerate``.  An alpha whose
    correlation series would exceed SERIES_LAG_CAP counts as +inf.
    """
    def objective(a: float) -> float:
        try:
            return tracking_bound(a, noise, lipschitz).total
        except _CapError:
            return math.inf

    # the interior points of np.linspace(0, 1, GRID_POINTS + 2), bit for bit,
    # as Python floats: the search on the models' closed forms runs without numpy
    step = 1.0 / (GRID_POINTS + 1)
    grid = [i * step for i in range(1, GRID_POINTS + 1)]
    best = _first_min([objective(a) for a in grid])  # smaller alpha on ties
    open_ends = lipschitz > 0.0
    lo = grid[best - 1] if best > 0 else 0.0 if open_ends else grid[0]
    hi = grid[best + 1] if best + 1 < len(grid) else 1.0 if open_ends else grid[-1]
    alpha_star = _golden_section_min(objective, lo, hi)
    degenerate = noise.gamma(0) == 0.0 and lipschitz == 0.0
    return AlphaSearchResult(alpha_star, tracking_bound(alpha_star, noise, lipschitz), degenerate)
