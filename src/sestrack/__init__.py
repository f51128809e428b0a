"""Exponential smoothing as constant-rate gradient tracking.

Simulation of trend-stationary processes, the smoothing recursion and its
gradient-step relatives, the asymptotic tracking-error bound with its
three-term decomposition, exact finite-time error recursions, and seeded
Monte Carlo experiments that verify the bound empirically.
"""

from .bounds import (
    AlphaSearchResult,
    BoundReport,
    MseRecursionState,
    closed_form_mse,
    exact_mse_sequence,
    initial_mse_state,
    optimize_alpha,
    tracking_bound,
)
from .dataio import (
    load_experiment_config,
    read_csv_column,
    save_experiment_config,
    write_csv,
    write_results,
)
from .experiments import (
    DEFAULT_FIGURE_SEED,
    FIGURE_CONFIGS,
    BoundCheck,
    ExperimentConfig,
    MaSignComparison,
    MseCurve,
    SmoothedPath,
    compare_negative_vs_positive_ma,
    monte_carlo_mse,
    reproduce_figure,
    simulate_smoothed,
    verify_bound,
)
from .processes import (
    AR1,
    MA1,
    MAq,
    Autocovariance,
    Constant,
    Linear,
    NoiseModel,
    PathSample,
    Sinusoid,
    Table,
    TrendSpec,
    WhiteGaussian,
    sample_path,
    trend_sequence,
)
from .seeding import child_seed, make_generator, splitmix64
from .smoothing import (
    LogDensityModel,
    SmootherState,
    gaussian_model,
    quadratic_loss_model,
    running_mean,
    ses_closed_form,
    ses_run,
    ses_step,
    sga_step,
)

__version__ = "0.1.0"

__all__ = [
    "AR1",
    "AlphaSearchResult",
    "Autocovariance",
    "BoundCheck",
    "BoundReport",
    "Constant",
    "DEFAULT_FIGURE_SEED",
    "ExperimentConfig",
    "FIGURE_CONFIGS",
    "Linear",
    "LogDensityModel",
    "MA1",
    "MAq",
    "MaSignComparison",
    "MseCurve",
    "MseRecursionState",
    "NoiseModel",
    "PathSample",
    "Sinusoid",
    "SmoothedPath",
    "SmootherState",
    "Table",
    "TrendSpec",
    "WhiteGaussian",
    "child_seed",
    "closed_form_mse",
    "compare_negative_vs_positive_ma",
    "exact_mse_sequence",
    "gaussian_model",
    "initial_mse_state",
    "load_experiment_config",
    "make_generator",
    "monte_carlo_mse",
    "optimize_alpha",
    "quadratic_loss_model",
    "read_csv_column",
    "reproduce_figure",
    "running_mean",
    "sample_path",
    "save_experiment_config",
    "ses_closed_form",
    "ses_run",
    "ses_step",
    "sga_step",
    "simulate_smoothed",
    "splitmix64",
    "tracking_bound",
    "trend_sequence",
    "verify_bound",
    "write_csv",
    "write_results",
]
