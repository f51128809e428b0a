"""The benchmark harness still runs against the library.

``perfbench/workloads.py`` is imported as it stands and each workload
builds its inputs and computes its reference values, so a library change
that breaks a call the harness makes fails here rather than in a benchmark
run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sestrack
import sestrack.cli  # noqa: F401  the harness runs sestrack.cli.main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["verify_fig1a", "mc_short_wide", "cli_cold_start", "long_horizon"])
def test_workload_prepares_its_checks(workloads, tmp_path, name):
    workload = workloads[name](sestrack, ROOT, 11, tmp_path)
    workload.prepare_checks()
    assert workload.describe()


def test_long_horizon_op_passes_its_checks(workloads, tmp_path):
    # one op of the benchmark's slowest workload, shrunk, through the
    # harness's own op() and check(): a fast path that breaks one of its
    # oracles (the closed-form last exact row, simulate's m_hat against
    # ses_run, the smoothed rows against ses_closed_form) fails here
    workload = workloads["long_horizon"](sestrack, ROOT, 11, tmp_path)
    workload.EXACT_STEPS, workload.SIM_STEPS = 3000, 2000
    workload.SMOOTH_CHECK_STEPS = (1, 2, 10, 1000, 2000)
    workload.prepare_checks()
    commands = workload.op(0)
    assert [command.label for command in commands] == ["exact_mse", "simulate", "smooth"]
    assert workload.check(commands) == []
