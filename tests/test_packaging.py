"""Packaging metadata agrees with the code it describes."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_modules(package: Path) -> set[str]:
    """Top-level names of every absolute import under *package*."""
    names: set[str] = set()
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0]
                             for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_runtime_dependencies_are_the_imported_third_party_modules():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    imported = (
        _imported_top_level_modules(ROOT / "src" / "repro")
        - set(sys.stdlib_module_names)
        - {"repro"}
    )
    assert declared == imported
