"""Package metadata."""

from pathlib import Path

import pytest

import sysarith


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert meta["project"]["version"] == sysarith.__version__
