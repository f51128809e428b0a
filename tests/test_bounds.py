import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sestrack import (
    AR1,
    MA1,
    MAq,
    Autocovariance,
    Constant,
    Linear,
    Sinusoid,
    Table,
    WhiteGaussian,
    closed_form_mse,
    exact_mse_sequence,
    optimize_alpha,
    ses_run,
    tracking_bound,
    trend_sequence,
)
from sestrack import bounds
from sestrack.bounds import GRID_POINTS, SERIES_LAG_CAP, SERIES_TOL, _golden_section_min
from sestrack.smoothing import INIT_WORDING

WHITE = WhiteGaussian(1.0)
ZERO = WhiteGaussian(0.0)


# ---------------------------------------------------------------------------
# tracking bound values
# ---------------------------------------------------------------------------

def test_white_noise_bound():
    report = tracking_bound(0.1, WHITE, 0.0)
    expected = float(Fraction(1, 19))  # alpha / (2 - alpha) at alpha = 0.1
    assert report.total == pytest.approx(expected, abs=1e-15)
    assert report.variance_term == report.total
    assert report.correlation_term == 0.0
    assert report.trend_term == 0.0
    assert report.truncation_residual_bound == 0.0


def test_zero_variance_bound_is_zero():
    report = tracking_bound(0.37, ZERO, 0.0)
    assert report.total == 0.0
    # a user-supplied zero autocovariance needs no lags, even where the
    # series of a nonzero one would exceed SERIES_LAG_CAP
    assert tracking_bound(1e-6, Autocovariance(lambda k: 0.0), 0.0).total == 0.0


def test_ar1_bound_decomposition():
    report = tracking_bound(0.1, AR1(0.2), 0.0)
    g0 = Fraction(25, 24)  # 1 / (1 - 0.04)
    variance = Fraction(1, 19) * g0
    correlation = Fraction(2, 19) * g0 * Fraction(9, 50) / Fraction(41, 50)
    assert report.variance_term == pytest.approx(float(variance), rel=1e-12)
    assert report.correlation_term == pytest.approx(float(correlation), rel=1e-12)
    assert report.total == pytest.approx(float(variance + correlation), rel=1e-12)
    assert report.total == pytest.approx(0.07889, abs=5e-6)


def test_negative_ma_correlation_shrinks_bound():
    neg = tracking_bound(0.1, MA1(-0.4), 0.0)
    white = tracking_bound(0.1, WHITE, 0.0)
    assert neg.correlation_term < 0.0
    assert neg.total < white.total


def test_series_matches_closed_form():
    model = AR1(0.2)
    closed = tracking_bound(0.1, model, 0.0)
    series = tracking_bound(0.1, Autocovariance(model.gamma), 0.0)
    assert series.truncation_lag > 0
    assert abs(series.correlation_term - closed.correlation_term) <= 1e-12
    # the reported residual is the worst-case envelope gamma(0) beta^(k+1)/(1-beta)
    beta = 0.9
    k = series.truncation_lag
    expected_residual = model.gamma(0) * beta ** (k + 1) / (1.0 - beta)
    assert series.truncation_residual_bound == pytest.approx(expected_residual, rel=1e-12)


def test_series_tail_not_cut_at_a_zero_lag():
    # gamma(1) = 0 sits between nonzero lags, as in a seasonal moving average
    gamma = Autocovariance(lambda k: {0: 1.0, 2: 0.5}.get(k, 0.0))
    report = tracking_bound(0.1, gamma, 0.0)
    expected = 2.0 * 0.1 / 1.9 * 0.5 * 0.9**2
    assert report.correlation_term == pytest.approx(expected, rel=1e-12)
    assert report.truncation_residual_bound <= 1e-14


@pytest.mark.parametrize("alpha", [0.02, 0.1, 0.37, 0.9])
@pytest.mark.parametrize(
    "noise",
    [WhiteGaussian(1.3), MA1(2.0), MA1(-0.4, 0.7), AR1(0.2), AR1(0.85, 2.0), MAq((0.5, 0.0, -0.3), 1.2)],
    ids=lambda n: n.kind,
)
def test_series_matches_closed_form_for_every_builtin(noise, alpha):
    closed = tracking_bound(alpha, noise, 0.0)
    series = tracking_bound(alpha, Autocovariance(noise.gamma), 0.0)
    assert closed.truncation_lag == 0
    assert series.correlation_term == pytest.approx(closed.correlation_term, rel=1e-12, abs=1e-14)
    assert series.truncation_residual_bound <= 1e-14 * noise.gamma(0)


# one user-supplied copy of each kind's gamma, shared so that its table of
# lags is filled once across examples
SERIES_CASES = [
    (model, Autocovariance(model.gamma))
    for model in (WhiteGaussian(1.3), MA1(-0.4, 0.7), AR1(0.999999), MAq((0.5, 0.0, -0.3), 1.2))
]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SERIES_CASES), exponent=st.floats(-6.0, -0.001))
def test_series_agrees_within_its_residual_or_raises(case, exponent):
    model, series_noise = case
    alpha = 10.0**exponent
    exact = tracking_bound(alpha, model, 0.0)
    try:
        series = tracking_bound(alpha, series_noise, 0.0)
    except ValueError as exc:
        assert "SERIES_LAG_CAP" in str(exc)
        return
    g0 = model.gamma(0)
    front = 2.0 * alpha / (2.0 - alpha)
    assert series.truncation_residual_bound <= SERIES_TOL * g0
    # rounding in either sum is relative to the largest the tail can be,
    # gamma(0) beta / alpha
    rounding = 1e-10 * front * g0 / alpha
    gap = abs(series.correlation_term - exact.correlation_term)
    assert gap <= front * series.truncation_residual_bound + rounding


def test_series_raises_at_the_cap_before_summing():
    # the closed form gives 250 000 here; summing only SERIES_LAG_CAP lags
    # of the series used to return 13.5% less
    model = AR1(0.999999)
    lags = []
    noise = Autocovariance(lambda k: lags.append(k) or model.gamma(k))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"alpha=1e-06 .*SERIES_LAG_CAP=1000000.*residual"):
        tracking_bound(1e-6, noise, 0.0)
    assert time.perf_counter() - start < 0.1
    assert lags == [0]
    assert tracking_bound(1e-6, model, 0.0).total == pytest.approx(250000.0, rel=1e-6)


def test_search_never_returns_an_alpha_the_series_cannot_bound():
    # the minimizer, near alpha = 1e-6, needs more lags than SERIES_LAG_CAP:
    # the search stops at the smallest alpha the series can bound
    noise = Autocovariance(AR1(0.5).gamma)
    start = time.perf_counter()
    result = optimize_alpha(noise, 1e-9)
    assert time.perf_counter() - start < 20.0
    assert 0 < result.report.truncation_lag <= SERIES_LAG_CAP
    assert result.report.truncation_residual_bound <= SERIES_TOL * noise.gamma(0)
    with pytest.raises(ValueError, match="SERIES_LAG_CAP"):
        tracking_bound(result.alpha * (1.0 - 1e-6), noise, 1e-9)


def test_series_required_inputs():
    no_tail = Autocovariance(AR1(0.5).gamma)
    report = tracking_bound(0.2, no_tail, 0.0)  # no closed form: the series runs
    assert report.truncation_lag > 0
    # the residual stop gamma(0) beta^(lag+1) / (1 - beta) needs only
    # |gamma(k)| <= gamma(0), so even a constant autocovariance sums right
    alpha = 0.2
    beta = 1.0 - alpha
    constant = tracking_bound(alpha, Autocovariance(lambda k: 1.0), 0.0)
    exact = 2.0 * alpha / (2.0 - alpha) * beta / (1.0 - beta)
    assert constant.correlation_term == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("lag", [2.7, 1.5, True])
def test_autocovariance_refuses_a_lag_that_is_not_an_integer(lag):
    with pytest.raises(ValueError, match=f"^lag: expected an integer, got {lag!r}$"):
        Autocovariance(lambda k: 1.0 / (1 + k)).gamma(lag)


@pytest.mark.parametrize("value, message", [
    (None, r"^gamma\(3\): expected a number, got None$"),
    ("0.5", r"^gamma\(3\): expected a number, got '0.5'$"),
    (True, r"^gamma\(3\): expected a number, got True$"),
    (np.True_, r"^gamma\(3\): expected a number, got np.True_$"),
    (math.nan, r"^gamma\(3\) must be finite, got nan$"),
    (-math.inf, r"^gamma\(3\) must be finite, got -inf$"),
])
def test_a_gamma_value_that_is_not_a_finite_number_is_refused_by_its_lag(value, message):
    # the tabulated series once read None as NaN, so the "bound" was NaN,
    # and parsed "0.5" and True
    def fn(k):
        return value if k == 3 else 0.5**k

    with pytest.raises(ValueError, match=message):
        Autocovariance(fn).gamma(-3)
    with pytest.raises(ValueError, match=message):
        tracking_bound(0.1, Autocovariance(fn), 0.1)
    with pytest.raises(ValueError, match=message):
        optimize_alpha(Autocovariance(fn), 0.1)


def test_a_numpy_gamma_value_is_tabulated_as_a_python_float():
    gamma = Autocovariance(lambda k: np.float32(0.5) ** k)
    assert type(gamma.gamma(2)) is float
    plain = Autocovariance(lambda k: float(np.float32(0.5) ** k))
    assert tracking_bound(0.1, gamma, 0.1) == tracking_bound(0.1, plain, 0.1)


def test_autocovariance_takes_a_numpy_integer_lag():
    gamma = Autocovariance(lambda k: 1.0 / (1 + k))
    assert gamma.gamma(np.int64(2)) == gamma.gamma(-2) == 1.0 / 3.0


def test_bound_validation():
    with pytest.raises(ValueError):
        tracking_bound(0.0, WHITE, 0.0)
    with pytest.raises(ValueError):
        tracking_bound(1.0, WHITE, 0.0)
    with pytest.raises(ValueError):
        tracking_bound(0.5, WHITE, -0.1)


@pytest.mark.parametrize("alpha,k", [(0.1, 1e200), (0.001, 1e153), (1e-200, 1.0)])
def test_overflowing_trend_term_is_infinite(alpha, k):
    report = tracking_bound(alpha, WHITE, k)
    assert report.trend_term == math.inf and report.total == math.inf


def test_search_skips_alphas_whose_trend_term_overflows():
    # (beta/alpha)^2 K^2 overflows on the small-alpha end of the grid only
    result = optimize_alpha(WHITE, 1e153)
    assert math.isfinite(result.report.total)
    # the bound falls all the way to alpha = 1, so the search leaves the grid
    last = float(np.linspace(0.0, 1.0, GRID_POINTS + 2)[-2])
    assert last < result.alpha < 1.0
    assert result.report.total < tracking_bound(last, WHITE, 1e153).total


def test_term_signs():
    for noise, k in ((MA1(0.9), 0.3), (MA1(-0.9), 0.0), (AR1(0.7), 1.0)):
        report = tracking_bound(0.25, noise, k)
        assert report.variance_term >= 0.0
        assert report.trend_term >= 0.0
        tail = sum(noise.gamma(lag) * 0.75**lag for lag in range(1, 200))
        assert (report.correlation_term < 0.0) == (tail < 0.0)


def test_alpha_limit_behaviour():
    k = 0.1
    small = tracking_bound(1e-6, WHITE, k)
    assert small.total > 1e9 * k * k  # trend term diverges as alpha -> 0
    assert small.variance_term == pytest.approx(1e-6 / (2 - 1e-6), rel=1e-12)
    near_one = tracking_bound(1.0 - 1e-6, WHITE, k)
    assert near_one.variance_term == pytest.approx(1.0, rel=1e-5)
    assert near_one.trend_term == pytest.approx((1e-6 / (1 - 1e-6)) ** 2 * k * k, rel=1e-9)


# ---------------------------------------------------------------------------
# exact recursion
# ---------------------------------------------------------------------------

def test_white_noise_recursion_fixed_point():
    sequence = exact_mse_sequence(0.1, WHITE, Constant(0.0), 500)
    limit = 0.1 * 0.1 / (1.0 - 0.9 * 0.9)  # solve D = beta^2 D + alpha^2 g0
    assert sequence[0] == 0.0
    assert np.all(np.diff(sequence) >= -1e-15)
    assert sequence[-1] == pytest.approx(limit, abs=1e-12)
    assert sequence[-1] == pytest.approx(
        tracking_bound(0.1, WHITE, 0.0).variance_term, abs=1e-12
    )


def test_zero_noise_constant_trend_is_zero():
    sequence = exact_mse_sequence(0.3, ZERO, Constant(4.0), 100)
    assert np.array_equal(sequence, np.zeros(101))


def test_noiseless_ramp_limit():
    alpha, slope = 0.1, 0.1
    sequence = exact_mse_sequence(alpha, ZERO, Linear(0.0, slope), 600)
    assert sequence[-1] == pytest.approx(0.81, rel=1e-9)
    # independent oracle: run the raw smoother on the noiseless ramp
    ramp = trend_sequence(Linear(0.0, slope), 600)
    trajectory = ses_run(ramp, alpha)
    lag_error = trajectory[600] - ramp[599]
    assert lag_error**2 == pytest.approx(sequence[600], rel=1e-9)


def test_every_start_reaches_the_same_limit():
    noise, trend = AR1(0.5, 2.0), Linear(1.0, 0.05)
    paper = exact_mse_sequence(0.2, noise, trend, 400)
    for init, d1 in (("first", noise.gamma(0)), (8.0, 49.0), (-3.5, 20.25)):
        sequence = exact_mse_sequence(0.2, noise, trend, 400, init)
        assert sequence[0] == d1
        assert abs(sequence[-1] - paper[-1]) <= 1e-12


@pytest.mark.parametrize("word", ["variance", "paper", "zero"])
def test_exact_recursion_refuses_a_start_that_is_not_an_init(word):
    with pytest.raises(ValueError, match=f"^init: expected {INIT_WORDING}, got {word!r}$"):
        exact_mse_sequence(0.2, WHITE, Constant(0.0), 10, word)


@pytest.mark.parametrize("g0", [-1.0, math.nan, math.inf])
def test_exact_functions_refuse_the_variance_the_bound_refuses(g0):
    noise = Autocovariance(lambda k: g0 if k == 0 else 0.0)
    for call in (
        lambda: tracking_bound(0.1, noise, 0.0),
        lambda: exact_mse_sequence(0.1, noise, Constant(0.0), 5),
        lambda: exact_mse_sequence(0.1, noise, Constant(0.0), 5, "first"),
        lambda: closed_form_mse(0.1, noise, Constant(0.0), 1),
    ):
        with pytest.raises(ValueError, match=rf"gamma\(0\) must be finite and >= 0, got {g0}"):
            call()


def test_recursion_state_jensen():
    # D_t = E[e_t^2] >= (E[e_t])^2 = v_t^2, with the mean error written out
    # from the trend increments: v_t = -sum_{h<t} beta^(t-h) K_h, K_1 = 0
    alpha, horizon = 0.15, 299
    beta = 1.0 - alpha
    noise = AR1(0.4)
    trend = Sinusoid(1.0, 0.02, 0.5)
    increments = np.concatenate(([0.0], np.diff(trend_sequence(trend, horizon))))
    sequence = exact_mse_sequence(alpha, noise, trend, horizon)
    for t in range(1, horizon + 2):
        h = np.arange(1, t)
        mean_error = -float(np.sum(beta ** (t - h) * increments[h - 1]))
        assert sequence[t - 1] >= mean_error**2 - 1e-12


def _reference_mse_step(
    a: float, variance: float, step: int, mse: float, mean_error: float,
    weighted: float, k: float, gamma_next: float,
) -> tuple[float, float, float]:
    # the recursion's step as it was written before the flat loops, verbatim
    b = 1.0 - a
    mse = (
        b * b * (mse + k * k - 2.0 * k * mean_error)
        + 2.0 * a * a * weighted
        - a * a * variance
    )
    return mse, b * (mean_error - k), weighted + b**step * gamma_next


def _reference_exact_mse(alpha, noise, trend, horizon, init):
    """The scalar loop exact_mse_sequence ran before, one gamma(t) per step,
    from the start ``init`` (None for m_1 = m*_1); the "first" start adds
    its term 2 a beta^t gamma(t-1) at every step."""
    a = alpha
    m_star = trend_sequence(trend, horizon)
    increments = np.concatenate(([0.0], np.diff(m_star)))
    gamma = noise.gamma
    g0 = gamma(0)
    error = 0.0 if init in (None, "first") else init - m_star[0]
    mse, mean_error, weighted = (g0 if init == "first" else error * error), error, g0
    out = np.empty(horizon + 1)
    out[0] = mse
    for t, k_t in enumerate(memoryview(increments), start=1):
        mse, mean_error, weighted = _reference_mse_step(
            a, g0, t, mse, mean_error, weighted, k_t, gamma(t)
        )
        if init == "first":
            mse += 2.0 * a * (1.0 - a) ** t * gamma(t - 1)
        out[t] = mse
    return out


_VARIANCES = st.sampled_from([0.0, 1, 0.37, 2.5, 100.0])
_EVERY_KIND = st.one_of(
    st.builds(WhiteGaussian, _VARIANCES),
    st.builds(MA1, st.floats(-5.0, 5.0), _VARIANCES),
    st.builds(AR1, st.floats(0.01, 0.99), _VARIANCES),
    st.builds(MAq, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30).map(tuple), _VARIANCES),
    st.floats(0.01, 0.99).map(lambda theta: Autocovariance(AR1(theta).gamma)),
)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(1e-6, 1.0 - 1e-6),
    noise=_EVERY_KIND,
    trend=st.one_of(
        st.builds(Constant, st.floats(-1e3, 1e3)),
        st.builds(Linear, st.floats(-1e3, 1e3), st.floats(-10.0, 10.0)),
        st.builds(Sinusoid, st.floats(-5.0, 5.0), st.floats(0.0, 1.0), st.floats(-3.0, 3.0)),
    ),
    horizon=st.integers(1, 500),
    init=st.one_of(st.none(), st.just("first"), st.floats(-1e3, 1e3)),
)
@example(0.3, MAq((0.5,) * 12, 1.3), Linear(1.0, 0.5), 5, None)  # q > horizon
@example(0.3, MAq((-0.5, 0.2, 0.1), 0.7), Sinusoid(2.0, 0.1, 0.0), 3, "first")  # q = horizon
@example(0.3, MAq((-0.5, 0.2, 0.1), 0.7), Sinusoid(2.0, 0.1, 0.0), 4, "first")  # q + 1 = horizon
@example(1e-6, WhiteGaussian(-0.0), Constant(0.0), 4, "first")
def test_exact_recursion_is_the_scalar_loop_bit_for_bit(alpha, noise, trend, horizon, init):
    got = exact_mse_sequence(alpha, noise, trend, horizon, init)
    assert got.tobytes() == _reference_exact_mse(alpha, noise, trend, horizon, init).tobytes()
    if init is None:  # the paper's start is the numeric start at m*_1, bit for bit
        at_m_star = exact_mse_sequence(alpha, noise, trend, horizon, trend_sequence(trend, 1)[0])
        assert at_m_star.tobytes() == got.tobytes()


def _dense_mse(alpha, noise, trend, horizon, init):
    """D_1 .. D_{horizon+1} written out: m_t = c_t + w_t . x, with w_t the
    weights of m_t on x_1 .. x_horizon (zero from x_t on) and c_t its fixed
    part, so D_t = (c_t + w_t . m* - m*_{t-1})^2 + w_t' Gamma w_t."""
    beta = 1.0 - alpha
    m_star = trend_sequence(trend, horizon)
    lags = np.abs(np.subtract.outer(np.arange(horizon), np.arange(horizon)))
    cov = np.array([noise.gamma(k) for k in range(horizon)])[lags]
    weights, fixed = np.zeros(horizon), 0.0
    if init == "first":
        weights[0] = 1.0
    else:
        fixed = m_star[0] if init is None else init
    out = []
    for t in range(1, horizon + 2):
        mean_error = fixed + weights @ m_star - m_star[max(t - 2, 0)]  # m*_0 := m*_1
        out.append(mean_error**2 + weights @ cov @ weights)
        if t <= horizon:  # m_{t+1} = beta m_t + alpha x_t
            weights *= beta
            fixed *= beta
            weights[t - 1] += alpha
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.01, 0.99),
    noise=st.one_of(
        st.builds(WhiteGaussian, _VARIANCES),
        st.builds(MA1, st.floats(-5.0, 5.0), _VARIANCES),
        st.builds(AR1, st.floats(0.01, 0.99), _VARIANCES),
        st.builds(MAq, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8).map(tuple),
                  _VARIANCES),
    ),
    trend=st.one_of(
        st.builds(Constant, st.floats(-10.0, 10.0)),
        st.builds(Linear, st.floats(-10.0, 10.0), st.floats(-1.0, 1.0)),
        st.builds(Sinusoid, st.floats(-5.0, 5.0), st.floats(0.0, 1.0), st.floats(-3.0, 3.0)),
    ),
    horizon=st.integers(1, 40),
    init=st.one_of(st.none(), st.just("first"), st.floats(-10.0, 10.0)),
)
def test_exact_recursion_is_the_dense_second_moment(alpha, noise, trend, horizon, init):
    got = exact_mse_sequence(alpha, noise, trend, horizon, init)
    dense = _dense_mse(alpha, noise, trend, horizon, init)
    assert np.all(np.abs(got - dense) <= 1e-12 * (1.0 + np.abs(dense) + noise.gamma(0)))


def test_exact_recursion_memory_stays_flat():
    # the recursion holds the trend's increments and its output, nothing per step
    horizon = 200_000
    # warmed up outside the trace: just after a full garbage collection the
    # first traced run of the loop is ~10x slower
    exact_mse_sequence(0.1, MA1(2.0), Linear(1.0, 0.05), 1000)
    tracemalloc.start()
    try:
        exact_mse_sequence(0.1, MA1(2.0), Linear(1.0, 0.05), horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * (horizon + 1)


# ---------------------------------------------------------------------------
# closed form vs recursion
# ---------------------------------------------------------------------------

CLOSED_FORM_CASES = [
    (0.1, AR1(0.35), Sinusoid(1.2, 0.01, 0.3)),
    (0.3, MA1(-0.8, 2.0), Linear(2.0, 0.05)),
    (0.75, WhiteGaussian(0.5), Constant(3.0)),
]


@pytest.mark.parametrize("alpha,gamma,trend", CLOSED_FORM_CASES)
def test_closed_form_matches_recursion(alpha, gamma, trend):
    horizon = 2000
    sequence = exact_mse_sequence(alpha, gamma, trend, horizon)
    for t in list(range(1, 20)) + [100, 500, 1000, 1500, 2000, 2001]:
        direct = closed_form_mse(alpha, gamma, trend, t)
        assert direct == pytest.approx(sequence[t - 1], rel=1e-9, abs=1e-12)


# Both sides are sums of nonnegative parts whose noise terms can cancel down
# to a fraction of gamma(0), so the tolerance is relative to D_t + gamma(0).
EXACT_MSE_REL = 1e-9


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1e-2, 0.99),
    noise=st.one_of(
        st.builds(WhiteGaussian, st.floats(0.0, 100.0)),
        st.builds(MA1, st.floats(-5.0, 5.0), st.floats(0.01, 100.0)),
        st.builds(AR1, st.floats(0.01, 0.9), st.floats(0.01, 100.0)),
    ),
    trend=st.one_of(
        st.builds(Constant, st.floats(-1e3, 1e3)),
        st.builds(Linear, st.floats(-1e3, 1e3), st.floats(-10.0, 10.0)),
    ),
    horizon=st.integers(1, 400),
)
def test_exact_recursion_matches_closed_form(alpha, noise, trend, horizon):
    sequence = exact_mse_sequence(alpha, noise, trend, horizon)
    for t in sorted({1, min(3, horizon + 1), horizon // 2 + 1, horizon + 1}):
        direct = closed_form_mse(alpha, noise, trend, t)
        assert abs(sequence[t - 1] - direct) <= EXACT_MSE_REL * (abs(direct) + noise.gamma(0))


def test_closed_form_first_step_is_zero():
    assert closed_form_mse(0.2, AR1(0.5), Linear(1.0, 0.3), 1) == 0.0


def test_closed_form_constant_trend_drops_trend_part():
    value = closed_form_mse(0.2, WHITE, Constant(7.0), 50)
    via_zero_k = closed_form_mse(0.2, WHITE, Table((7.0,) * 50), 50)
    assert value == via_zero_k


def test_closed_form_stable_at_large_step():
    value = closed_form_mse(0.05, WHITE, Linear(0.0, 0.1), 5000)
    assert math.isfinite(value)
    expected = tracking_bound(0.05, WHITE, 0.1).total
    assert value == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# bound consistency at long horizons
# ---------------------------------------------------------------------------

NOISES = [WhiteGaussian(1.0), MA1(0.7), MA1(-0.4), AR1(0.3)]


@pytest.mark.parametrize("noise", NOISES)
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.8])
def test_limit_never_exceeds_bound(noise, alpha):
    horizon = 5000
    k = 0.05
    for trend in (Linear(1.0, k), Sinusoid(k / 0.01, 0.01, 0.2)):
        sequence = exact_mse_sequence(alpha, noise, trend, horizon)
        tail_max = sequence[-horizon // 10 :].max()
        total = tracking_bound(alpha, noise, trend.lipschitz_constant).total
        assert tail_max <= total + 1e-9
        if isinstance(trend, Linear):
            # constant one-step increments attain the bound in the limit
            assert tail_max == pytest.approx(total, rel=1e-6)


# ---------------------------------------------------------------------------
# alpha optimization
# ---------------------------------------------------------------------------

def _grid_start() -> float:
    return float(np.linspace(0.0, 1.0, GRID_POINTS + 2)[1])


def test_static_trend_prefers_smallest_alpha():
    result = optimize_alpha(AR1(0.5), 0.0)
    assert result.alpha == _grid_start()
    assert not result.degenerate


def test_degenerate_objective_flagged():
    result = optimize_alpha(ZERO, 0.0)
    assert result.degenerate
    assert result.alpha == _grid_start()
    assert result.report.total == 0.0


def test_matches_dense_grid():
    k = 0.1
    grid = np.linspace(0.0, 1.0, 10**6 + 2)[1:-1]
    beta = 1.0 - grid
    dense = grid / (2.0 - grid) + (beta / grid) ** 2 * k * k
    expected = grid[int(np.argmin(dense))]
    result = optimize_alpha(WHITE, k)
    assert abs(result.alpha - expected) <= 1e-4
    assert result.report.trend_term > 0.0


def _dense_log_grid_min(noise, k: float) -> float:
    # log-spaced in alpha near 0 and in 1 - alpha near 1
    half = np.geomspace(1e-9, 0.5, 2000)
    alphas = np.concatenate((half, 1.0 - half[::-1]))
    return min(tracking_bound(float(a), noise, k).total for a in alphas if 0.0 < a < 1.0)


@pytest.mark.parametrize(
    "noise,k",
    [(WhiteGaussian(1.0), 1e-6), (AR1(0.2), 1e-6), (MA1(2.0), 3e-6), (WhiteGaussian(1.0), 100.0)],
    ids=["white-small-k", "ar1-small-k", "ma1-small-k", "white-large-k"],
)
def test_search_leaves_the_grid_at_either_end(noise, k):
    # the minimizer lies below the first or above the last grid point
    result = optimize_alpha(noise, k)
    grid = np.linspace(0.0, 1.0, GRID_POINTS + 2)[1:-1]
    assert not grid[0] <= result.alpha <= grid[-1]
    expected = _dense_log_grid_min(noise, k)
    assert result.report.total == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("k", [1e-10, 1e-9, 1e-6, 0.1, 100.0, 1e200])
def test_search_refines_to_rounding_inside_the_open_interval(monkeypatch, k):
    # the search runs until rounding stops it, so a minimizer near 1e-6 is
    # not cut short by an absolute width in alpha, and it never evaluates
    # alpha = 0 or 1, even when every trend term is +inf (K = 1e200)
    seen = []
    evaluate = bounds.tracking_bound

    def spy(alpha, noise, lipschitz):
        seen.append(alpha)
        return evaluate(alpha, noise, lipschitz)

    monkeypatch.setattr(bounds, "tracking_bound", spy)
    result = optimize_alpha(WHITE, k)
    assert 0.0 < min(seen) and max(seen) < 1.0
    if k == 1e200:
        assert result.report.trend_term == math.inf
    else:
        assert result.report.total <= _dense_log_grid_min(WHITE, k)


def test_search_grid_is_the_linspace_interior_bit_for_bit(monkeypatch):
    seen = []
    evaluate = bounds.tracking_bound

    def spy(alpha, *rest):
        seen.append(alpha)
        return evaluate(alpha, *rest)

    monkeypatch.setattr(bounds, "tracking_bound", spy)
    optimize_alpha(WHITE, 0.1)
    grid = np.linspace(0.0, 1.0, GRID_POINTS + 2)[1:-1]
    assert np.array(seen[:GRID_POINTS]).tobytes() == grid.tobytes()


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])


@given(st.lists(_SPECIAL | st.floats(), min_size=1, max_size=40))
def test_first_min_is_argmin(values):
    # ties go to the first of equal minima, and a NaN counts as the minimum
    assert bounds._first_min(values) == int(np.argmin(np.array(values)))


@pytest.mark.parametrize("edge", [2.5e-5, 1e-4, 7.7e-4])
def test_golden_section_ends_on_the_finite_side_of_an_infinite_region(edge):
    # +inf below the edge, as where the series cannot bound, and rising
    # above it: the minimum is the edge, not the far end of the bracket
    best = _golden_section_min(lambda a: math.inf if a < edge else a, 0.0, 2e-3)
    assert edge <= best <= edge * (1.0 + 1e-12)


def test_golden_section_stops_when_the_bracket_stops_shrinking():
    calls = []

    def objective(a):
        calls.append(a)
        if len(calls) > 10_000:
            raise RuntimeError("the search did not terminate")
        return (a - 0.3) ** 2

    alpha = _golden_section_min(objective, 0.25, 0.35)
    assert abs(alpha - 0.3) <= 1e-15
    assert len(calls) < 200


def test_scaling_leaves_argmin_unchanged():
    base = optimize_alpha(MA1(0.6, 1.0), 0.1)
    for c in (0.25, 16.0):
        scaled = optimize_alpha(MA1(0.6, c), 0.1 * math.sqrt(c))
        assert abs(scaled.alpha - base.alpha) <= 1e-5
        assert scaled.report.total == pytest.approx(c * base.report.total, rel=1e-9)


@pytest.mark.parametrize("k", ["0.1", True, None, [0.1]])
def test_the_trend_increment_bound_is_a_number_never_coerced(k):
    # "0.1" was parsed and True ran as K = 1
    message = f"^lipschitz: expected a number, got {re.escape(repr(k))}$"
    with pytest.raises(ValueError, match=message):
        tracking_bound(0.1, MA1(2.0), k)
    with pytest.raises(ValueError, match=message):
        optimize_alpha(MA1(2.0), k)
