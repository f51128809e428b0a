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
