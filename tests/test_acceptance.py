"""Acceptance suite: one test per criterion, at the stated tolerances.

The conftest terminal hook prints one PASS/FAIL line per criterion after
the run.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from sestrack import (
    AR1,
    MA1,
    Autocovariance,
    Constant,
    ExperimentConfig,
    WhiteGaussian,
    compare_negative_vs_positive_ma,
    exact_mse_sequence,
    gaussian_model,
    monte_carlo_mse,
    optimize_alpha,
    ses_closed_form,
    ses_run,
    tracking_bound,
    verify_bound,
    write_results,
)
from sestrack.experiments import FIGURE_CONFIGS

WHITE_UNIT = WhiteGaussian(1.0)
FIXED_POINT_01 = float(Fraction(1, 19))  # alpha/(2-alpha) at alpha = 0.1
ACCEPTANCE_SEED = 2024


def test_criterion_01_closed_form_recursion_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(50):
        alpha = rng.uniform(0.02, 0.95)
        scale = rng.uniform(0.1, 10.0)
        shift = rng.uniform(-20.0, 20.0)
        x = shift + scale * rng.standard_normal(1000)
        init = float(x[0]) if rng.integers(2) else rng.uniform(-10.0, 10.0)
        trajectory = ses_run(x, alpha, init=init)
        for t in range(1, 1002):
            direct = ses_closed_form(x, alpha, init, t)
            assert abs(trajectory[t - 1] - direct) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"equivalence sweep took {elapsed:.2f}s"


def test_criterion_02_white_noise_fixed_point():
    sequence = exact_mse_sequence(0.1, WHITE_UNIT, Constant(0.0), 500, d1="paper")
    report = tracking_bound(0.1, WHITE_UNIT, 0.0)
    assert np.all(np.diff(sequence) >= -1e-15)  # monotone convergence upward
    assert abs(sequence[-1] - FIXED_POINT_01) <= 1e-12
    assert abs(sequence[-1] - report.variance_term) <= 1e-12
    assert report.variance_term == pytest.approx(0.1 / (2.0 - 0.1), abs=1e-15)


def test_criterion_03_monte_carlo_matches_exact_oracle():
    level = 0.7
    config = ExperimentConfig(
        WHITE_UNIT,
        Constant(level),
        alpha=0.3,
        horizon=500,
        replications=20_000,
        seed=ACCEPTANCE_SEED,
        init=level,  # deterministic init at m*_1
    )
    start = time.perf_counter()
    curve = monte_carlo_mse(config)
    elapsed = time.perf_counter() - start
    exact = exact_mse_sequence(
        0.3, WHITE_UNIT, Constant(level), 500, d1="paper"
    )
    for t in (2, 10, 100, 500):
        gap = abs(curve.mean[t - 1] - exact[t])
        assert gap <= 3.0 * curve.stderr[t - 1], (t, gap, curve.stderr[t - 1])
    assert elapsed < 60.0, f"Monte Carlo took {elapsed:.1f}s"


def test_criterion_04_theorem_holds_at_paper_configs():
    noise_1a, trend_1a = FIGURE_CONFIGS["1a"]
    assert trend_1a.lipschitz_constant == pytest.approx(0.1, abs=1e-15)
    assert noise_1a.gamma(1) == pytest.approx(0.4, abs=1e-15)
    for figure, (noise, trend) in sorted(FIGURE_CONFIGS.items()):
        config = ExperimentConfig(
            noise,
            trend,
            alpha=0.1,
            horizon=1000,
            replications=10_000,
            seed=ACCEPTANCE_SEED,
            init=8.0,
        )
        check = verify_bound(config)
        assert check.passed, (
            f"figure {figure}: tail {check.empirical_tail} exceeds "
            f"{check.bound.total} + 3*{check.tail_se}"
        )


def test_criterion_05_negative_covariance_improves_tracking():
    result = compare_negative_vs_positive_ma(
        alpha=0.1,
        magnitude=0.4,
        replications=10_000,
        horizon=1000,
        seed=ACCEPTANCE_SEED,
    )
    assert result.tail_negative < result.tail_positive
    assert result.bound_total_negative < result.bound_total_positive


@pytest.mark.parametrize("theta", [0.1, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
def test_criterion_06_ar1_closed_form_vs_truncated_series(theta, alpha):
    closed = tracking_bound(alpha, AR1(theta), 0.0)
    series = tracking_bound(alpha, Autocovariance(AR1(theta).gamma), 0.0)
    assert closed.truncation_lag == 0 and series.truncation_lag > 0
    assert abs(closed.correlation_term - series.correlation_term) <= 1e-12
    assert abs(closed.total - series.total) <= 1e-12


def _dense_grid_argmin(noise, lipschitz: float) -> float:
    alphas = np.linspace(0.0, 1.0, 10**6 + 2)[1:-1]
    betas = 1.0 - alphas
    g0 = noise.gamma(0)
    if isinstance(noise, WhiteGaussian):
        tail = np.zeros_like(alphas)
    elif isinstance(noise, MA1):
        tail = noise.gamma(1) * betas
    else:
        x = noise.theta * betas
        tail = g0 * x / (1.0 - x)
    front = alphas / (2.0 - alphas)
    total = front * g0 + 2.0 * front * tail + (betas / alphas) ** 2 * lipschitz**2
    return float(alphas[int(np.argmin(total))])


def test_criterion_07_alpha_optimizer_matches_dense_grid():
    rng = np.random.default_rng(777)
    for _ in range(20):
        pick = rng.integers(0, 3)
        variance = rng.uniform(0.25, 4.0)
        if pick == 0:
            noise = WhiteGaussian(variance)
        elif pick == 1:
            noise = MA1(rng.uniform(-1.5, 1.5), variance)
        else:
            noise = AR1(rng.uniform(0.05, 0.85), variance)
        lipschitz = rng.uniform(0.02, 0.5)
        result = optimize_alpha(noise, lipschitz)
        expected = _dense_grid_argmin(noise, lipschitz)
        assert abs(result.alpha - expected) <= 1e-4, (noise, lipschitz)
    # joint scaling of (gamma, K^2) leaves the argmin unchanged
    base = optimize_alpha(AR1(0.3, 1.0), 0.1)
    for c in (0.25, 16.0):
        scaled = optimize_alpha(AR1(0.3, c), 0.1 * np.sqrt(c))
        assert abs(scaled.alpha - base.alpha) <= 1e-4


def test_criterion_08_small_alpha_divergence_rate():
    k = 0.1
    totals = [tracking_bound(a, WHITE_UNIT, k).total for a in (1e-3, 1e-4, 1e-5)]
    for previous, current in zip(totals, totals[1:]):
        ratio = current / previous
        assert abs(ratio - 100.0) <= 5.0, f"ratio {ratio}"


def test_criterion_09_worker_count_invariance(tmp_path):
    config = ExperimentConfig(
        AR1(0.2),
        Constant(0.0),
        alpha=0.1,
        horizon=200,
        replications=2500,
        seed=ACCEPTANCE_SEED,
        init="first",
    )
    files = []
    for tag, workers in (("w1", 1), ("w8", 8), ("w1_again", 1)):
        curve = monte_carlo_mse(config, workers=workers)
        files.append(write_results(curve, tmp_path / f"{tag}.csv").read_bytes())
    assert files[0] == files[1] == files[2]


def test_criterion_10_gaussian_score_gradient_check():
    rng = np.random.default_rng(424242)
    for _ in range(100):
        variance = rng.uniform(0.25, 4.0)
        model = gaussian_model(variance, 0.3)
        m = rng.uniform(-5.0, 5.0)
        x = m + float(rng.choice([-1.0, 1.0])) * rng.uniform(0.1, 5.0)
        h = 1e-5 * max(1.0, abs(m))
        finite_difference = (
            model.log_density(x, m + h) - model.log_density(x, m - h)
        ) / (2.0 * h)
        score = model.score(x, m)
        assert abs(finite_difference - score) / abs(score) <= 1e-6
