"""Import structure of the package, read from the source with ``ast``, and
the package namespace built on it.

The numerical modules sit below the file and command layers: none of them
imports ``dataio`` or ``cli``, at module level or inside a function, and
no module of the package imports anything inside a function; a bare
``import sestrack`` counts as importing ``dataio`` and ``experiments``,
which its namespace serves.  ``config``, which every command reads its
flags through, loads neither the writers nor the Monte Carlo engine.
"""

import ast
from pathlib import Path

import pytest

import sestrack

PACKAGE = Path(sestrack.__file__).parent
NUMERICAL = ("processes", "seeding", "smoothing", "bounds", "experiments")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> set[str]:
    """Names of the sestrack modules a module imports anywhere in its body.
    A bare ``import sestrack`` counts as reaching the modules the package
    namespace loads on first use, whose names it serves."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            absolute = node.level == 0
            parts = node.module.split(".") if node.module else []
            if absolute and parts[:1] != ["sestrack"]:
                continue
            parts = parts[1:] if absolute else parts
            names.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts == ["sestrack"]:
                    names.update(sestrack._LAZY)
                elif parts[0] == "sestrack":
                    names.add(parts[1])
    return names


@pytest.mark.parametrize("module", NUMERICAL)
def test_numerical_modules_import_neither_dataio_nor_cli(module):
    assert not _package_imports(_tree(module)) & {"dataio", "cli"}


def test_config_imports_neither_the_writers_nor_the_monte_carlo_engine():
    # every command reads its flags through config, so what it imports is
    # what bound and optimize-alpha load
    assert _package_imports(_tree("config")) <= {"processes", "smoothing", "seeding"}


def test_package_imports_only_at_module_level():
    local = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))}
        local += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert local == []


def test_only_the_numpy_shim_imports_numpy():
    # an ``import numpy`` loads numpy at once; every other module takes ``np``
    # from ``_numpy``, which loads it on first use
    eager = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_numpy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            eager += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "numpy"]
    assert eager == []



def _sampler_internals(tree: ast.AST) -> list[int]:
    """Lines below ``tree`` that read ``._extra_draws``, call ``._filter``
    or call ``fill_standard_normals``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_extra_draws":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in ("_filter", "fill_standard_normals"):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_the_sampler_sizes_fills_and_filters_a_block():
    # how many draws a block holds and how they become noise is decided in
    # ``processes`` alone, so a new sampler edits no other module
    found = {path.stem: _sampler_internals(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "processes"}
    assert {module: lines for module, lines in found.items() if lines} == {}


def _number_tests(tree: ast.AST) -> list[int]:
    """Lines below ``tree`` that import ``numbers`` or call ``isinstance``
    on a bool or a ``numbers`` ABC."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.args[1])}
        else:
            continue
        if names & {"numbers", "bool", "bool_", "Real", "Integral"}:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_scalar_rule_asks_what_a_number_is():
    # "is this a real number, or an integer?" is answered once, by
    # seeding._number, which alone needs the ``numbers`` import
    found = {path.stem: _number_tests(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    seeding = _tree("seeding")
    rule = next(node for node in seeding.body
                if isinstance(node, ast.FunctionDef) and node.name == "_number")
    imports = [node for node in seeding.body if isinstance(node, ast.Import)]
    assert {module: lines for module, lines in found.items() if lines} == {
        "seeding": sorted(_number_tests(rule) + [line for node in imports for line in _number_tests(node)])
    }


# ---------------------------------------------------------------------------
# the package namespace
# ---------------------------------------------------------------------------

PUBLIC_NAMES = [
    "AR1", "AlphaSearchResult", "Autocovariance", "BoundCheck", "BoundReport", "Constant",
    "DEFAULT_FIGURE_SEED", "ExperimentConfig", "FIGURE_CONFIGS", "Linear", "LogDensityModel",
    "MA1", "MAq", "MseCurve", "NoiseModel", "Sinusoid", "SmoothedPath", "SmootherState",
    "Table", "TrendSpec", "WhiteGaussian", "child_seed", "closed_form_mse",
    "exact_mse_sequence", "gaussian_model", "load_experiment_config", "make_generator",
    "monte_carlo_mse", "optimize_alpha", "quadratic_loss_model", "read_csv_column",
    "reproduce_figure", "sample_path", "save_experiment_config", "ses_closed_form", "ses_run",
    "ses_step", "sga_step", "simulate_smoothed", "splitmix64", "tracking_bound",
    "trend_sequence", "verify_bound", "write_csv", "write_results",
]


def test_public_names_are_pinned():
    assert sestrack.__all__ == PUBLIC_NAMES


def test_every_public_name_is_listed_and_star_imported():
    assert set(PUBLIC_NAMES) <= set(dir(sestrack))
    namespace = {}
    exec("from sestrack import *", namespace)
    assert all(namespace[name] is getattr(sestrack, name) for name in PUBLIC_NAMES)


def test_a_lazily_resolved_name_follows_its_home_module(monkeypatch):
    # resolved on every access, never cached, so a tracer's wrapper is seen
    # while it is installed and the original once it is removed
    original = sestrack.write_csv

    def replacement(*args):
        return None

    monkeypatch.setattr(sestrack.dataio, "write_csv", replacement)
    assert sestrack.write_csv is replacement
    monkeypatch.undo()
    assert sestrack.write_csv is original is sestrack.dataio.write_csv
