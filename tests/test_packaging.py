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


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def _module_names(specs: list[str]) -> set[str]:
    """The import name of each requirement spec (``pytest>=7`` -> pytest)."""
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in specs
    }


def _third_party(*packages: Path) -> set[str]:
    imported = set().union(*map(_imported_top_level_modules, packages))
    return imported - set(sys.stdlib_module_names) - {"repro"}


def test_runtime_dependencies_are_the_imported_third_party_modules():
    declared = _module_names(_project()["dependencies"])
    assert declared == _third_party(ROOT / "src" / "repro")


def test_test_extra_is_what_tests_and_benchmarks_import_beyond_runtime():
    project = _project()
    runtime = _module_names(project["dependencies"])
    declared = _module_names(project["optional-dependencies"]["test"])
    imported = _third_party(ROOT / "tests", ROOT / "benchmarks")
    assert declared == imported - runtime - {"conftest"}
