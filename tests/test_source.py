"""Static checks on the library source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "spectral_affine"


def _imported_roots(tree):
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("module", ["linalg", "zeros", "conjugacy", "ortho"])
def test_exact_modules_import_no_numpy(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert "numpy" not in _imported_roots(tree)


def test_no_assert_statements():
    # python -O strips assert, so a check that must hold raises explicitly
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
