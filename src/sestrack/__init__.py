"""Exponential smoothing as constant-rate gradient tracking.

Simulation of trend-stationary processes, the smoothing recursion and its
gradient-step relatives, the asymptotic tracking-error bound with its
three-term decomposition, exact finite-time error recursions, and seeded
Monte Carlo experiments that verify the bound empirically.

Importing the package loads the modules every command needs; the CSV/SVG
writers (``dataio``) and the Monte Carlo engine (``experiments``) load on
the first access to one of their names here.  This namespace is the one
late loader of the package's own modules: ``cli`` calls the writers and
the engine by these names too.
"""

import importlib
import types

from .bounds import (
    AlphaSearchResult,
    BoundReport,
    closed_form_mse,
    exact_mse_sequence,
    optimize_alpha,
    tracking_bound,
)
from .config import (
    DEFAULT_FIGURE_SEED, ExperimentConfig, load_experiment_config, save_experiment_config,
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

# the public names of the modules loaded on first use, by module
_LAZY = {
    "dataio": ("read_csv_column", "reproduce_figure", "write_csv", "write_results"),
    "experiments": ("FIGURE_CONFIGS", "BoundCheck", "MseCurve", "SmoothedPath",
                    "monte_carlo_mse", "simulate_smoothed", "verify_bound"),
}

# the public names are the ones imported above and those of _LAZY, stated there once
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    + [name for names in _LAZY.values() for name in names]
)


def __getattr__(name: str):
    """A lazy module, or a name of one, looked up in its module on every
    access, so a name patched there (as by a tracer) is the name seen here."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__all__})
