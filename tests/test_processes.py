import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sestrack import (
    AR1,
    MA1,
    MAq,
    Constant,
    Linear,
    Sinusoid,
    Table,
    WhiteGaussian,
    make_generator,
    sample_path,
    tracking_bound,
    trend_sequence,
)
from sestrack.processes import _SLAB_CELLS, _sample
from sestrack.seeding import child_seed, child_seeds

MODELS = [
    WhiteGaussian(1.3),
    MA1(2.0),
    MA1(-0.4, 0.7),
    AR1(0.2),
    AR1(0.85, 2.0),
    MAq((0.5, -0.3), 1.2),
]


# ---------------------------------------------------------------------------
# autocovariance values
# ---------------------------------------------------------------------------

def test_ma1_lag_one_value():
    # a / (1 + a^2) at a = 2 is exactly 2/5
    assert MA1(2.0).gamma(1) == pytest.approx(0.4, abs=1e-15)
    assert MA1(2.0).gamma(0) == 1.0
    assert MA1(2.0).gamma(2) == 0.0
    assert MA1(2.0).gamma(-1) == pytest.approx(0.4, abs=1e-15)


def test_white_noise_off_lag_zero():
    assert WhiteGaussian(1.0).gamma(3) == 0.0
    assert WhiteGaussian(2.5).gamma(0) == 2.5


def test_ar1_stationary_variance():
    expected = float(Fraction(1, 1) / (1 - Fraction(1, 5) ** 2))  # 1 / (1 - 0.04)
    assert AR1(0.2).gamma(0) == pytest.approx(expected, abs=1e-12)
    assert AR1(0.2).gamma(3) == pytest.approx(expected * 0.2**3, rel=1e-12)


def test_ma1_negative_coefficient():
    expected = float(Fraction(-4, 10) / (1 + Fraction(4, 10) ** 2))  # -10/29
    assert MA1(-0.4).gamma(1) == pytest.approx(expected, abs=1e-12)


def test_maq_matches_brute_force():
    rng = np.random.default_rng(7)
    coeffs = tuple(rng.uniform(-1, 1, size=4))
    model = MAq(coeffs, 1.7)
    b = (1.0,) + coeffs
    for k in range(7):
        expected = 1.7 * sum(
            b[j] * b[j + k] for j in range(len(b) - k) if j + k < len(b)
        ) if k < len(b) else 0.0
        assert model.gamma(k) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_maq_unnormalized_variance():
    model = MAq((0.5, -0.3), 2.0)
    assert model.gamma(0) == pytest.approx(2.0 * (1 + 0.25 + 0.09), rel=1e-12)


@pytest.mark.parametrize("model", MODELS)
def test_evenness_and_dominance(model):
    g0 = model.gamma(0)
    assert g0 >= 0.0
    for k in range(-10, 11):
        assert model.gamma(k) == model.gamma(-k)
        assert abs(model.gamma(k)) <= g0 + 1e-15


def test_validation():
    with pytest.raises(ValueError):
        AR1(0.0)
    with pytest.raises(ValueError):
        AR1(1.0)
    with pytest.raises(ValueError):
        WhiteGaussian(-1.0)
    with pytest.raises(ValueError):
        MAq(())
    for coefficients in [(math.inf,), (0.5, -math.inf), (math.nan, 0.3)]:
        with pytest.raises(ValueError, match="^MAq coefficients must be finite$"):
            MAq(coefficients)
    # the sampler normalizes by sqrt(1 + a^2), so a^2 must not overflow
    with pytest.raises(ValueError, match="MA1 coefficient must be finite, with a finite square"):
        MA1(-1e200)
    assert MA1(1e154).gamma(0) == 1.0


# ---------------------------------------------------------------------------
# trends
# ---------------------------------------------------------------------------

def test_linear_first_step_is_start():
    seq = trend_sequence(Linear(2.0, 0.1), 11)
    assert seq[0] == 2.0
    assert seq[10] == pytest.approx(3.0, rel=1e-12)


def test_sinusoid_starts_at_phase():
    assert trend_sequence(Sinusoid(1.0, math.pi / 1000, 0.0), 1)[0] == 0.0


def test_constant_everywhere():
    seq = trend_sequence(Constant(5.0), 12345)
    assert seq[0] == 5.0
    assert seq[12344] == 5.0


def test_table_lookup_and_errors():
    table = Table((1.0, 2.5, 2.0))
    assert trend_sequence(table, 3)[1] == 2.5
    with pytest.raises(IndexError):
        trend_sequence(table, 4)
    with pytest.raises(ValueError):
        trend_sequence(table, 0)
    with pytest.raises(ValueError, match="^Table trend needs at least one value$"):
        Table(())


NON_FINITE_TRENDS = {
    "level": lambda v: Constant(v),
    "start": lambda v: Linear(v, 1.0),
    "slope": lambda v: Linear(0.0, v),
    "amp": lambda v: Sinusoid(v, 0.1),
    "rate": lambda v: Sinusoid(1.0, v),
    "phase": lambda v: Sinusoid(1.0, 0.1, v),
    "values": lambda v: Table((1.0, v)),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", sorted(NON_FINITE_TRENDS))
def test_trends_reject_non_finite_parameters(key, value):
    with pytest.raises(ValueError, match=rf"trend {key} must be finite, got {value}"):
        NON_FINITE_TRENDS[key](value)


def test_sequence_matches_pointwise():
    laws = [
        (Linear(2.0, 0.1), lambda t: 2.0 + 0.1 * (t - 1)),
        (Sinusoid(1.5, 0.01, 0.4), lambda t: 1.5 * math.sin(0.01 * (t - 1) + 0.4)),
        (Constant(-2.0), lambda t: -2.0),
        (Table((1.0, 2.5, 2.0)), lambda t: (1.0, 2.5, 2.0)[t - 1]),
    ]
    for trend, law in laws:
        horizon = 3 if isinstance(trend, Table) else 50
        seq = trend_sequence(trend, horizon)
        assert seq == pytest.approx([law(t) for t in range(1, horizon + 1)])


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def test_same_seed_same_path():
    a = sample_path(AR1(0.3), Linear(0.0, 0.1), 200, seed=77)
    b = sample_path(AR1(0.3), Linear(0.0, 0.1), 200, seed=77)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_path(AR1(0.3), Linear(0.0, 0.1), 200, seed=78))


def test_zero_noise_path_is_trend():
    x = sample_path(WhiteGaussian(0.0), Sinusoid(1.0, 0.01), 100, seed=1)
    assert np.array_equal(x, trend_sequence(Sinusoid(1.0, 0.01), 100))


def _bartlett_se(model, k: int, n: int) -> float:
    # large-lag window is plenty: every model here has gamma ~ 0 past lag 60
    var = sum(
        model.gamma(j) ** 2 + model.gamma(j + k) * model.gamma(j - k)
        for j in range(-80, 81)
    )
    return math.sqrt(var / n)


def _sample_autocov(residuals: np.ndarray, k: int) -> float:
    centered = residuals - residuals.mean()
    return float((centered[: len(centered) - k] * centered[k:]).mean())


@pytest.mark.parametrize(
    "model", [WhiteGaussian(1.0), MA1(0.7), MA1(-0.4), AR1(0.5), MAq((0.5, -0.3))]
)
def test_empirical_autocovariance_consistency(model):
    n = 10**6
    residuals = sample_path(model, Constant(0.0), n, seed=101)  # the trend is 0
    for k in range(6):
        estimate = _sample_autocov(residuals, k)
        se = _bartlett_se(model, k, n)
        assert abs(estimate - model.gamma(k)) <= 4.0 * se, (k, estimate, model.gamma(k))


def test_ar1_lag_one_against_analytic():
    model = AR1(0.2)
    n = 10**6
    residuals = sample_path(model, Constant(0.0), n, seed=55)  # the trend is 0
    estimate = _sample_autocov(residuals, 1)
    se = _bartlett_se(model, 1, n)
    assert abs(estimate - 0.2 * model.gamma(0)) <= 3.0 * se


@pytest.mark.parametrize("model", [AR1(0.6), MA1(1.5)])
def test_stationary_start(model):
    reps = 10**4
    first = np.empty(reps)
    late = np.empty(reps)
    for r in range(reps):
        x = sample_path(model, Constant(0.0), 1000, seed=9_000_000 + r)
        first[r] = x[0]
        late[r] = x[999]
    g0 = model.gamma(0)
    se = g0 * math.sqrt(2.0 / reps)
    assert abs(first.var() - g0) <= 4.0 * se
    assert abs(late.var() - g0) <= 4.0 * se


@pytest.mark.parametrize("kind, first, variance", [(AR1, 0.2, 0.7), (MA1, 2.0, 0.7)])
def test_a_float32_parameter_gives_the_bits_of_its_python_float(kind, first, variance):
    # a float32 parameter was once stored as it was, and the AR(1) recursion
    # and the MA(1) bound then ran in float32
    single = kind(np.float32(first), np.float32(variance))
    double = kind(float(np.float32(first)), float(np.float32(variance)))
    assert single == double
    for trend in (Constant(0.0), Linear(1.0, np.float32(0.05))):
        path = sample_path(single, trend, 2000, seed=11)
        assert path.dtype == np.float64
        assert path.tobytes() == sample_path(double, trend, 2000, seed=11).tobytes()
    assert tracking_bound(0.1, single, np.float32(0.05)) == tracking_bound(
        0.1, double, float(np.float32(0.05))
    )


def test_residual_mean_near_zero_over_replications():
    total = 0.0
    count = 0
    for r in range(400):
        x = sample_path(MA1(0.8), Linear(1.0, 0.05), 50, seed=777 + r)
        total += (x - trend_sequence(Linear(1.0, 0.05), 50)).sum()
        count += 50
    se = math.sqrt(MA1(0.8).gamma(0) / count) * 2.0  # crude bound, correlation <= doubles it
    assert abs(total / count) <= 4.0 * se


def test_sample_path_validation():
    with pytest.raises(ValueError):
        sample_path(WhiteGaussian(1.0), Constant(0.0), 0, seed=1)


def _defining_formula(noise, seed, n):
    # each kind's law written out on the Philox draws of ``seed``, so the
    # sampled bits are pinned independently of how the filters compute them
    rng = make_generator(seed)
    if noise.kind == "white":
        return math.sqrt(noise.variance) * rng.standard_normal(n)
    if noise.kind == "ma1":
        a = noise.coefficient
        eta = math.sqrt(noise.innovation_variance) * rng.standard_normal(n + 1)
        return (eta[1:] + a * eta[:-1]) / math.sqrt(1.0 + a**2)
    if noise.kind == "maq":
        eta = math.sqrt(noise.innovation_variance) * rng.standard_normal(n + noise.order)
        return np.convolve(eta, (1.0,) + noise.coefficients, mode="valid")
    # eps_1 ~ N(0, gamma(0)), eps_{t+1} = theta eps_t + eta_t
    eps = math.sqrt(noise.gamma(0)) * rng.standard_normal()
    expected = [eps]
    for eta in rng.standard_normal(n - 1).tolist():
        eps = noise.theta * eps + math.sqrt(noise.innovation_variance) * eta
        expected.append(eps)
    return np.array(expected)


@pytest.mark.parametrize("n", [1, 500, _SLAB_CELLS + 3])  # the last takes two slabs
@pytest.mark.parametrize(
    "noise",
    [WhiteGaussian(2.5), MA1(-0.4, 1.7), AR1(0.9, 1.3), MAq((0.5, -0.3, 0.2), 1.3)],
    ids=lambda m: m.kind,
)
def test_sample_path_is_the_defining_formula_on_the_philox_stream(noise, n):
    x = sample_path(noise, Constant(0.0), n, seed=42)
    residuals = x - trend_sequence(Constant(0.0), n)
    assert residuals.tobytes() == _defining_formula(noise, 42, n).tobytes()


@pytest.mark.parametrize("package", ["scipy", "concurrent"])
def test_import_loads_no_package(package):
    import sestrack

    src = str(Path(sestrack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, sestrack, sestrack.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


BLOCK_NOISES = [
    WhiteGaussian(2.5),
    MA1(-0.4, 1.7),
    AR1(0.9, 0.3),
    MAq((0.5, -0.3, 0.2), 1.3),
]


def _block(noise, trend, seeds, horizon):
    """The (horizon, len(seeds)) observations ``_sample`` samples, one
    column per seed."""
    return _sample(noise, trend_sequence(trend, horizon), seeds).T


@pytest.mark.parametrize("noise", BLOCK_NOISES, ids=lambda m: m.kind)
@pytest.mark.parametrize(
    "trend", [Linear(2.0, 0.1), Sinusoid(1.0, 0.05, 0.3)], ids=["linear", "sin"]
)
def test_sample_block_columns_are_sample_paths(noise, trend):
    seed, start, width, horizon = 2024, 1029, 40, 57
    out = _block(noise, trend, child_seeds(seed, range(start, start + width)), horizon)
    for i, r in enumerate(range(start, start + width)):
        x = sample_path(noise, trend, horizon, child_seed(seed, r))
        assert out[:, i].tobytes() == x.tobytes()


@pytest.mark.parametrize("order", range(1, 9))
def test_maq_block_filter_sums_like_convolve(order):
    # the block filter sums the oldest innovation first, the order
    # np.convolve sums in, so the two agree bit for bit
    rng = np.random.default_rng(order)
    noise = MAq(tuple(rng.normal(scale=1.5, size=order)), 0.8)
    seeds = [int(k) for k in rng.integers(0, 2**63, size=9)]
    out = _block(noise, Constant(0.0), seeds, 120)
    for i, seed in enumerate(seeds):
        eta = math.sqrt(0.8) * make_generator(seed).standard_normal(120 + order)
        expected = np.convolve(eta, (1.0,) + noise.coefficients, mode="valid")
        assert out[:, i].tobytes() == expected.tobytes()
