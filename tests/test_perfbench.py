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
