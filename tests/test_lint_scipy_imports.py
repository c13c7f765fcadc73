"""Lint-style test: no module under ``src/repro/`` imports SciPy at import time.

SciPy serves offline helpers only (perturbations, augmentation filters,
experiment diagnostics); SSIM's window mean is a numpy kernel in
:mod:`repro.nn.backend.kernels`.  A module-level ``import scipy`` anywhere
in the package would load SciPy into every serving process and pool
replica again, so SciPy users import it inside the function that needs it.
This test walks each module's AST, skipping function bodies (which run
only when called), and flags every ``scipy`` import it finds.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _import_time_nodes(node: ast.AST):
    """Nodes executed when the module is imported (class bodies included)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _import_time_nodes(child)


def _scipy_imports(tree: ast.AST):
    for node in _import_time_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield node


def _modules():
    files = sorted(SRC.rglob("*.py"))
    assert files, "source tree not found — did the layout move?"
    return files


@pytest.mark.parametrize("path", _modules(), ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_level_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [f"{path.relative_to(SRC)}:{node.lineno}" for node in _scipy_imports(tree)]
    assert not offenders, (
        "module-level scipy import (import it inside the function that "
        "needs it): " + ", ".join(offenders)
    )


def test_lint_catches_module_and_class_level_imports():
    source = (
        "import scipy.ndimage\n"
        "from scipy import signal\n"
        "class A:\n"
        "    from scipy import linalg\n"
        "def f():\n"
        "    from scipy import ndimage\n"
    )
    lines = [node.lineno for node in _scipy_imports(ast.parse(source))]
    assert lines == [1, 2, 4]
