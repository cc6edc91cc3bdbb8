"""Package metadata and source-wide invariants."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import sysarith

ROOT = Path(__file__).resolve().parents[1]


def project_table():
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_pyproject_version_matches_package():
    assert project_table()["version"] == sysarith.__version__


def test_runtime_dependencies_import():
    # every declared dependency must be importable, or `pip install -e .`
    # cannot succeed without fetching it
    for requirement in project_table()["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group()
        importlib.import_module(name.replace("-", "_"))


def test_no_assert_statements_in_src():
    # certificate invariants must raise real errors, which `python -O` keeps;
    # an invariant raises a SysarithError, not a bare AssertionError
    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    sites = []
    for path in sorted((ROOT / "src" / "sysarith").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise) and node.exc is not None
                  and raises_assertion_error(node)]
    assert sites == []
