import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sestrack import (
    SmootherState,
    gaussian_model,
    quadratic_loss_model,
    ses_closed_form,
    ses_run,
    ses_step,
    sga_step,
)
from sestrack.smoothing import (
    INIT_WORDING,
    LogDensityModel,
    _initial_estimates,
    _recursion,
    check_init,
)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_midpoint():
    out = ses_step(SmootherState(2.0, 0.5), 4.0)
    assert out.estimate == 3.0
    assert out.step == 2


def test_step_fixed_point_is_exact():
    for c in (3.0, -17.25, 1e-3, 2.0 / 3.0):
        state = SmootherState(c, 0.1)
        assert ses_step(state, c).estimate == c


def test_step_example_value():
    assert ses_step(SmootherState(8.0, 0.1), 2.0).estimate == pytest.approx(7.4, abs=1e-12)


def test_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ses_step(SmootherState(0.0, 0.3), math.nan)
    with pytest.raises(ValueError):
        SmootherState(0.0, 0.0)
    with pytest.raises(ValueError):
        SmootherState(0.0, 1.0)
    with pytest.raises(ValueError):
        SmootherState(math.inf, 0.5)


@pytest.mark.parametrize("step", [2.5, True, 0, np.float64(2.0)], ids=repr)
def test_state_refuses_a_step_that_is_not_a_count(step):
    message = ("^step must be an integer >= 1, got 0$" if step == 0 and type(step) is int
               else f"^step: expected an integer, got {re.escape(repr(step))}$")
    with pytest.raises(ValueError, match=message):
        SmootherState(1.0, 0.1, step)


@pytest.mark.parametrize("estimate", ["1", True, None, math.inf, math.nan])
def test_state_refuses_an_estimate_that_is_not_a_finite_number(estimate):
    # "1" was a bare TypeError and True was accepted
    message = (f"^estimate must be a finite number, got {estimate!r}$" if type(estimate) is float
               else f"^estimate: expected a number, got {re.escape(repr(estimate))}$")
    with pytest.raises(ValueError, match=message):
        SmootherState(estimate, 0.1)


def test_a_numpy_state_computes_in_python_floats():
    # a float32 alpha was kept, and every step computed in float32
    state = SmootherState(np.float32(1.0), np.float32(0.1), np.int64(1))
    python = SmootherState(1.0, float(np.float32(0.1)), 1)
    assert state == python
    assert [type(v) for v in (state.estimate, state.alpha, state.step)] == [float, float, int]
    stepped, expected = ses_step(state, 2.0).estimate, ses_step(python, 2.0).estimate
    assert type(stepped) is float and struct.pack("<d", stepped) == struct.pack("<d", expected)


@pytest.mark.parametrize("step_size", [True, np.True_, "0.1", None], ids=repr)
def test_a_step_size_is_a_number_never_coerced(step_size):
    # True was stored as the step size, and "0.1" was a bare TypeError
    message = f"^step_size: expected a number, got {re.escape(repr(step_size))}$"
    with pytest.raises(ValueError, match=message):
        LogDensityModel(lambda x, m: x - m, step_size)
    assert type(LogDensityModel(lambda x, m: x - m, np.float32(0.5)).step_size) is float


@pytest.mark.parametrize("score", ["1", True, None], ids=repr)
def test_a_score_is_a_number_never_coerced(score):
    model = LogDensityModel(lambda x, m: score, 0.1)
    with pytest.raises(ValueError, match=f"^score: expected a number, got {score!r}$"):
        sga_step(SmootherState(0.0, 0.5), model, 1.0)


@pytest.mark.parametrize("step_size", [0.0, -0.1, math.inf, math.nan])
def test_a_step_size_is_finite_and_positive(step_size):
    with pytest.raises(ValueError, match=f"^step size must be finite and > 0, got {step_size}$"):
        LogDensityModel(lambda x, m: x - m, step_size)


@pytest.mark.parametrize("variance", [0.0, math.inf, math.nan])
def test_a_gaussian_variance_is_finite_and_positive(variance):
    with pytest.raises(ValueError, match=f"^variance must be finite and > 0, got {variance}$"):
        gaussian_model(variance, 0.1)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_an_ascent_step_refuses_a_non_finite_observation(x):
    with pytest.raises(ValueError, match=f"^observation must be finite, got {x}$"):
        sga_step(SmootherState(0.0, 0.5), quadratic_loss_model(0.5), x)


def test_contraction_exact_for_dyadic_alpha():
    # with power-of-two alpha and integer states every product is exact
    for alpha in (0.5, 0.25, 0.75, 0.125):
        for m1, m2, x in ((4.0, 7.0, 2.0), (-8.0, 3.0, 5.0), (16.0, -2.0, 0.0)):
            lhs = abs(
                ses_step(SmootherState(m1, alpha), x).estimate
                - ses_step(SmootherState(m2, alpha), x).estimate
            )
            assert lhs == (1.0 - alpha) * abs(m1 - m2)


def test_contraction_generic():
    rng = np.random.default_rng(3)
    for _ in range(200):
        alpha = rng.uniform(0.01, 0.99)
        m1, m2, x = rng.normal(scale=5.0, size=3)
        lhs = abs(
            ses_step(SmootherState(m1, alpha), x).estimate
            - ses_step(SmootherState(m2, alpha), x).estimate
        )
        assert lhs == pytest.approx((1.0 - alpha) * abs(m1 - m2), rel=1e-12, abs=1e-15)


def test_convex_hull():
    rng = np.random.default_rng(4)
    for _ in range(500):
        alpha = rng.uniform(1e-6, 1.0 - 1e-9)
        m, x = rng.normal(scale=10.0, size=2)
        out = ses_step(SmootherState(m, alpha), x).estimate
        assert min(m, x) <= out <= max(m, x)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_run_constant_series():
    assert np.array_equal(ses_run([5.0, 5.0, 5.0], 0.3), [5.0, 5.0, 5.0, 5.0])


def test_run_fixed_init_single_step():
    out = ses_run([2.0], 0.1, init=8.0)
    assert out[0] == 8.0
    assert out[1] == pytest.approx(7.4, abs=1e-12)


def test_run_matches_closed_form():
    rng = np.random.default_rng(11)
    x = rng.normal(size=1000)
    trajectory = ses_run(x, 0.1)
    for t in (1, 2, 3, 50, 500, 1001):
        assert trajectory[t - 1] == pytest.approx(
            ses_closed_form(x, 0.1, x[0], t), abs=1e-10
        )


# ses_run and ses_closed_form round differently, and a value near zero can be
# the difference of large terms, so the tolerance is relative to the largest
# magnitude in the data (observations and initial estimate).
CLOSED_FORM_REL = 1e-10
_moderate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(_moderate, min_size=1, max_size=300),
    alpha=st.floats(1e-3, 0.999),
    init=st.one_of(st.just("first"), _moderate),
)
def test_run_matches_closed_form_at_every_step(x, alpha, init):
    x = np.array(x)
    start = x[0] if init == "first" else init
    trajectory = ses_run(x, alpha, init)
    scale = max(float(np.max(np.abs(x))), abs(start), 1e-300)
    for t in range(1, len(x) + 2):
        direct = ses_closed_form(x, alpha, start, t)
        assert abs(trajectory[t - 1] - direct) <= CLOSED_FORM_REL * scale


def test_closed_form_boundaries():
    x = np.array([3.0, 1.0, 4.0])
    assert ses_closed_form(x, 0.3, 9.5, 1) == 9.5
    assert ses_closed_form(x, 0.3, x[0], 2) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(IndexError):
        ses_closed_form(x, 0.3, 0.0, 5)
    with pytest.raises(IndexError):
        ses_closed_form(x, 0.3, 0.0, 0)


@pytest.mark.parametrize("step", [2.7, True])
def test_closed_form_refuses_a_step_that_is_not_an_integer(step):
    with pytest.raises(ValueError, match=f"^step: expected an integer, got {step!r}$"):
        ses_closed_form([3.0, 1.0, 4.0], 0.3, 9.5, step)


def test_closed_form_takes_a_numpy_integer_step():
    x = [3.0, 1.0, 4.0]
    assert ses_closed_form(x, 0.3, 9.5, np.int64(2)) == ses_closed_form(x, 0.3, 9.5, 2)


@pytest.mark.parametrize("observations, dtype", [
    (["1", "2"], "<U1"), ([True, False], "bool"), ([1.0, None], "object"), ([1j, 2.0], "complex128"),
])
def test_observations_are_numbers_never_coerced(observations, dtype):
    # ["1", "2"] was parsed and [True, False] smoothed as 0/1
    message = f"^observations must be numbers, got dtype {dtype}$"
    with pytest.raises(ValueError, match=message):
        ses_run(observations, 0.1)
    with pytest.raises(ValueError, match=message):
        ses_closed_form(observations, 0.1, 0.0, 2)


def test_integer_and_float32_observations_are_smoothed_as_doubles():
    reference = ses_run([1.0, 2.0, 4.0], 0.3)
    for x in ([1, 2, 4], np.array([1, 2, 4], dtype=np.uint8), np.array([1, 2, 4], np.float32)):
        assert ses_run(x, 0.3).tobytes() == reference.tobytes()


def test_run_input_validation():
    with pytest.raises(ValueError):
        ses_run([], 0.5)
    with pytest.raises(ValueError):
        ses_run([1.0, math.inf], 0.5)
    with pytest.raises(ValueError):
        ses_run([1.0], 0.5, init="median")


@pytest.mark.parametrize("init", [True, False, np.True_, "median", math.inf, math.nan])
def test_init_is_first_or_a_finite_number(init):
    message = (f"^init must be finite, got {init}$" if type(init) is float
               else f"^init: expected {INIT_WORDING}, got {init!r}$")
    with pytest.raises(ValueError, match=message):
        check_init(init)
    with pytest.raises(ValueError, match=message):
        ses_run([1.0, 2.0], 0.5, init=init)
    with pytest.raises(ValueError, match=message):
        _initial_estimates(init, np.zeros(2))
    assert check_init("first") == "first"
    assert check_init(np.float32(0.5)) == 0.5 and type(check_init(1)) is float


def test_init_error_states_the_init_grammar():
    with pytest.raises(ValueError, match=f"^init: expected {INIT_WORDING}, got True$"):
        check_init(True)


@pytest.mark.parametrize("init", ["first", -2.0])
def test_inplace_time_major_columns_match_scalar_runs(init):
    # the row recursion a Monte Carlo block runs: each column is its own ses_run
    x = np.random.default_rng(6).normal(size=(30, 5))
    buffer = np.vstack([np.full(5, np.nan), x])
    buffer[0] = _initial_estimates(init, buffer[1])
    _recursion(buffer[1:], buffer[0], 0.31)
    for j in range(5):
        assert np.array_equal(buffer[:, j], ses_run(x[:, j], 0.31, init=init))


def test_shift_equivariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=300)
    base = ses_run(x, 0.2, init=1.0)
    shifted = ses_run(x + 10.0, 0.2, init=11.0)
    assert shifted == pytest.approx(base + 10.0, abs=1e-9)


def test_scale_equivariance_exact_for_powers_of_two():
    rng = np.random.default_rng(7)
    x = rng.normal(size=300)
    base = ses_run(x, 0.2, init=0.7)
    assert np.array_equal(ses_run(4.0 * x, 0.2, init=4.0 * 0.7), 4.0 * base)
    scaled = ses_run(3.7 * x, 0.2, init=3.7 * 0.7)
    assert scaled == pytest.approx(3.7 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient steps
# ---------------------------------------------------------------------------

def test_gaussian_unit_variance_matches_ses_bitwise():
    model = gaussian_model(1.0, 0.1)
    assert model.step_size == pytest.approx(0.1)
    rng = np.random.default_rng(8)
    for _ in range(100):
        m, x = rng.normal(scale=4.0, size=2)
        state = SmootherState(m, 0.1)
        assert sga_step(state, model, x).estimate == ses_step(state, x).estimate


def test_gaussian_example():
    out = sga_step(SmootherState(8.0, 0.1), gaussian_model(1.0, 0.1), 2.0)
    assert out.estimate == pytest.approx(7.4, abs=1e-12)


def test_gaussian_general_variance_matches_ses():
    rng = np.random.default_rng(9)
    for _ in range(100):
        v = rng.uniform(0.2, 5.0)
        alpha = rng.uniform(0.05, 0.9)
        m, x = rng.normal(scale=3.0, size=2)
        state = SmootherState(m, alpha)
        got = sga_step(state, gaussian_model(v, alpha), x).estimate
        assert got == pytest.approx(ses_step(state, x).estimate, rel=1e-12, abs=1e-14)


def test_quadratic_loss_is_the_same_code_path():
    rng = np.random.default_rng(10)
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.99)
        m, x = rng.normal(scale=6.0, size=2)
        state = SmootherState(m, alpha)
        assert (
            sga_step(state, quadratic_loss_model(alpha), x).estimate
            == ses_step(state, x).estimate
        )


def test_score_zero_leaves_estimate():
    state = SmootherState(2.5, 0.4)
    assert sga_step(state, gaussian_model(1.0, 0.4), 2.5).estimate == 2.5


def test_laplace_score_step():
    model = LogDensityModel(lambda x, m: math.copysign(1.0, x - m), 0.1)
    assert sga_step(SmootherState(0.0, 0.5), model, 5.0).estimate == 0.1


def test_nonfinite_score_rejected():
    model = LogDensityModel(lambda x, m: math.inf, 0.1)
    with pytest.raises(ValueError):
        sga_step(SmootherState(0.0, 0.5), model, 1.0)


def test_gaussian_score_matches_finite_difference():
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = rng.uniform(0.25, 4.0)
        model = gaussian_model(v, 0.3)
        m = rng.uniform(-5.0, 5.0)
        x = m + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)
        h = 1e-5 * max(1.0, abs(m))
        fd = (model.log_density(x, m + h) - model.log_density(x, m - h)) / (2.0 * h)
        score = model.score(x, m)
        assert abs(fd - score) / abs(score) <= 1e-6
