"""``src/probeopt`` imports only the standard library, numpy and itself.

``pyproject.toml`` declares numpy as the one dependency, so any other
third-party import in the package would fail on a clean install.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "probeopt"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "probeopt"}


def stray_imports(source: str) -> list[str]:
    """Absolute imports in ``source`` whose top-level package is not allowed."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_the_check_flags_only_third_party_imports():
    source = "import os.path\nimport scipy.linalg\nfrom numpy import ndarray\nfrom . import errors\n"
    assert stray_imports(source) == ["scipy.linalg"]
    assert stray_imports("from sklearn import gaussian_process") == ["sklearn"]


def test_package_imports_only_stdlib_numpy_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 20
    stray = {
        str(path.relative_to(PACKAGE)): found
        for path in modules
        if (found := stray_imports(path.read_text(encoding="utf-8")))
    }
    assert stray == {}
