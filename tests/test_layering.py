"""Import structure of the package, read from the source with ``ast``.

The numerical modules sit below the file and command layers: none of them
imports ``dataio`` or ``cli``, at module level or inside a function, and
no module of the package imports anything inside a function.
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
    """Names of the sestrack modules a module imports anywhere in its body."""
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
                if parts[0] == "sestrack" and len(parts) > 1:
                    names.add(parts[1])
    return names


@pytest.mark.parametrize("module", NUMERICAL)
def test_numerical_modules_import_neither_dataio_nor_cli(module):
    assert not _package_imports(_tree(module)) & {"dataio", "cli"}


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
