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


def test_no_assert_statements_in_oracles():
    # CI also runs the tests under `python -O`, which strips an assert
    # outside a test module, so the oracles' own checks raise instead
    path = ROOT / "tests" / "oracles.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


# every public name, so that an addition or removal shows in the diff; the
# submodules are reachable as attributes but are not exported by `import *`
PUBLIC_NAMES = [
    "AssignmentReport", "CoverResult", "DegenerateExtensionError",
    "EXIT_INPUT_ERROR", "EXIT_NO_CANDIDATE", "EXIT_OK", "ExclusionReport",
    "FamilyEntry", "FundamentalUnit", "GaussianInt", "GaussianPrimeIdeal",
    "GaussianQuadExt", "InadmissibleAlgebraError", "InputError", "MODE_PAPER",
    "MODE_TRACE", "NoCandidateError", "NonHyperbolicError", "QuadFieldQ",
    "QuaternionAlgebraQ", "QuaternionAlgebraQi", "SearchResult",
    "SysarithError", "SystoleResult", "algebra_q", "algebra_qi", "area_factor",
    "canonical_associate", "canonicalize_delta", "coarea_q",
    "cover_algebra_2d", "cover_algebra_3d", "embeds_q", "embeds_qi",
    "exact_systole_q", "excluded_fields_subset", "factor_gaussian",
    "fields_with_regulator_below", "format_volume", "fundamental_discriminant",
    "fundamental_unit", "gaussian_primes_up_to_norm",
    "geodesic_length_from_trace", "growth_check", "ideal_above",
    "is_admissible", "is_prime", "is_squarefree", "kronecker_symbol",
    "minimal_algebra_2d", "multiquadratic_discriminant", "primorial_log_bound",
    "quad_ext", "quad_exts_with_disc_below", "quad_field",
    "quad_residue_symbol", "real_fields_with_disc_below", "regulator",
    "regulator_lower_bound", "relative_discriminant", "require_admissible",
    "same_systole_family_q", "silverman_disc_bound", "splitting_in_ext",
    "splitting_in_qi", "splitting_type_q", "squarefree_part",
    "systole_field_q", "theorem_area_log_bound_2d", "torsion_free_q",
    "torsion_free_qi", "valid_algebra_3d", "verify_exclusion_3d",
    "volume_constant_qi", "volume_qi",
]


def test_public_surface_is_pinned():
    assert sorted(sysarith.__all__) == PUBLIC_NAMES
