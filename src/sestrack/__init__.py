"""Exponential smoothing as constant-rate gradient tracking.

Simulation of trend-stationary processes, the smoothing recursion and its
gradient-step relatives, the asymptotic tracking-error bound with its
three-term decomposition, exact finite-time error recursions, and seeded
Monte Carlo experiments that verify the bound empirically.
"""

import types

from .bounds import (
    AlphaSearchResult,
    BoundReport,
    closed_form_mse,
    exact_mse_sequence,
    optimize_alpha,
    tracking_bound,
)
from .dataio import (
    load_experiment_config,
    read_csv_column,
    reproduce_figure,
    save_experiment_config,
    write_csv,
    write_results,
)
from .experiments import (
    DEFAULT_FIGURE_SEED,
    FIGURE_CONFIGS,
    BoundCheck,
    ExperimentConfig,
    MseCurve,
    SmoothedPath,
    monte_carlo_mse,
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
    ses_closed_form,
    ses_run,
    ses_step,
    sga_step,
)

__version__ = "0.1.0"

# the public names are the ones imported above, stated there once
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
