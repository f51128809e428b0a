"""One scalar rule for every numeric argument of the public functions.

A string, a bool (Python or numpy) or None in place of a number is refused
with a ValueError that names the argument, never parsed, never run as 0 or
1, and never a bare TypeError.
"""

import re

import numpy as np
import pytest

from sestrack import (
    Constant,
    ExperimentConfig,
    SmootherState,
    WhiteGaussian,
    child_seed,
    closed_form_mse,
    exact_mse_sequence,
    gaussian_model,
    make_generator,
    monte_carlo_mse,
    optimize_alpha,
    quadratic_loss_model,
    sample_path,
    ses_closed_form,
    ses_run,
    ses_step,
    sga_step,
    simulate_smoothed,
    tracking_bound,
)
from sestrack.seeding import SchemaError, _number

_W, _C = WhiteGaussian(1.0), Constant(0.0)
_STATE = SmootherState(1.0, 0.1)

# each public function, the arguments of a valid call, and its numeric ones
CALLS = {
    ses_run: ({"observations": [1.0, 2.0], "alpha": 0.1, "init": 0.0},
              ["observations", "alpha", "init"]),
    ses_step: ({"state": _STATE, "x": 2.0}, ["x"]),
    sga_step: ({"state": _STATE, "model": quadratic_loss_model(0.1), "x": 2.0}, ["x"]),
    gaussian_model: ({"variance": 1.0, "alpha": 0.1}, ["variance", "alpha"]),
    quadratic_loss_model: ({"alpha": 0.1}, ["alpha"]),
    ses_closed_form: ({"observations": [1.0, 2.0], "alpha": 0.1, "initial_estimate": 0.0,
                       "step": 2}, ["observations", "alpha", "initial_estimate", "step"]),
    tracking_bound: ({"alpha": 0.1, "noise": _W, "lipschitz": 0.1}, ["alpha", "lipschitz"]),
    exact_mse_sequence: ({"alpha": 0.1, "noise": _W, "trend": _C, "horizon": 5, "init": 0.0},
                         ["alpha", "horizon", "init"]),
    closed_form_mse: ({"alpha": 0.1, "noise": _W, "trend": _C, "step": 3}, ["alpha", "step"]),
    optimize_alpha: ({"noise": _W, "lipschitz": 0.1}, ["lipschitz"]),
    child_seed: ({"master": 1, "index": 2}, ["master", "index"]),
    make_generator: ({"seed": 1}, ["seed"]),
    sample_path: ({"noise": _W, "trend": _C, "horizon": 5, "seed": 1}, ["horizon", "seed"]),
    simulate_smoothed: ({"noise": _W, "trend": _C, "alpha": 0.1, "horizon": 5, "seed": 1,
                         "init": 0.0}, ["alpha", "horizon", "seed", "init"]),
    monte_carlo_mse: ({"config": ExperimentConfig(_W, _C, 0.1, 10, 10, seed=1), "workers": 1},
                      ["workers"]),
}
CASES = [(function, name) for function, (_, names) in CALLS.items() for name in names]


@pytest.mark.parametrize("function, name", CASES,
                         ids=[f"{function.__name__}-{name}" for function, name in CASES])
def test_a_numeric_argument_of_another_type_is_a_value_error_naming_it(function, name):
    # once "2" was parsed, True stepped toward 1.0 and None was a bare TypeError
    valid, _ = CALLS[function]
    function(**valid)
    for value in ("0.5", True, np.True_, None):
        if (function, name, value) == (exact_mse_sequence, "init", None):
            continue  # None selects the paper's start m_1 = m*_1
        with pytest.raises(ValueError) as refused:  # a TypeError is not caught here
            function(**{**valid, name: value})
        assert re.search(rf"\b{name}\b", str(refused.value)), (value, str(refused.value))


@pytest.mark.parametrize("value, kind, message", [
    ("1", float, "^k: expected a number, got '1'$"),
    (np.False_, float, "^k: expected a number, got np.False_$"),
    (1 + 0j, float, r"^k: expected a number, got \(1\+0j\)$"),
    (2.0, int, "^k: expected an integer, got 2.0$"),
    (np.float64(2.0), int, r"^k: expected an integer, got np.float64\(2.0\)$"),
    pytest.param(10**400, float, f"^k: {10**400} is out of range$", id="10**400"),
])
def test_the_rule_refuses_with_its_wording(value, kind, message):
    with pytest.raises(SchemaError, match=message):
        _number(value, kind, "k")


@pytest.mark.parametrize("value, kind", [
    (np.float32(0.1), float), (np.int64(3), float), (3, float), (np.uint64(2**64 - 1), int),
])
def test_the_rule_returns_a_python_number(value, kind):
    typed = _number(value, kind, "k")
    assert type(typed) is kind and typed == kind(value)
