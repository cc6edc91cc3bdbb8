"""Package metadata and source-wide invariants."""

import ast
import importlib
import re
from pathlib import Path

import math
from fractions import Fraction

import numpy as np
import pytest

import sysarith
from sysarith import (
    InputError,
    algebra_q,
    exact_systole_q,
    fields_with_regulator_below,
    fundamental_unit,
    gaussian_primes_up_to_norm,
    geodesic_length_from_trace,
    ideal_above,
    is_squarefree,
    kronecker_symbol,
    minimal_algebra_2d,
    multiquadratic_discriminant,
    quad_exts_with_disc_below,
    quad_field,
    regulator,
    regulator_lower_bound,
    same_systole_family_q,
    valid_algebra_3d,
    verify_exclusion_3d,
)
from sysarith.errors import check_int, check_real

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


# wrong-typed arguments that leaked TypeError (or built a float-valued
# field, or returned a symbol) before every entry point checked its
# arguments in errors.py
MALFORMED_CALLS = {
    "family count 2.5": lambda: same_systole_family_q(
        algebra_q([3, 5, 7, 11]), quad_field(77), 2.5),
    "pool bound '100'": lambda: valid_algebra_3d(1.0, "100"),
    "extension bound '9'": lambda: quad_exts_with_disc_below("9"),
    "norm multiset 5": lambda: verify_exclusion_3d(5, 1.0),
    "systole cap '5'": lambda: exact_systole_q(algebra_q([2, 31]), "paper", "5"),
    "regulator bound '1'": lambda: fields_with_regulator_below("1"),
    "ideal norm bound '10'": lambda: gaussian_primes_up_to_norm("10"),
    "field d 5.0": lambda: quad_field(5.0),
    "prime 5.0": lambda: ideal_above(5.0),
    "ramified prime 2.0": lambda: algebra_q([2.0, 3]),
    "generator 2.5": lambda: multiquadratic_discriminant([2.5, 3]),  # never returned
    "squarefree test '5'": lambda: is_squarefree("5"),
    "regulator lower bound '9'": lambda: regulator_lower_bound("9"),
    "trace '5'": lambda: geodesic_length_from_trace("5"),
    "kronecker prime 3.0": lambda: kronecker_symbol(5, 3.0),  # returned -1
    "kronecker d 5.0": lambda: kronecker_symbol(5.0, 3),  # returned -1
}


@pytest.mark.parametrize("call", MALFORMED_CALLS.values(), ids=MALFORMED_CALLS.keys())
def test_malformed_arguments_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_numpy_scalars_pass_the_checks():
    assert minimal_algebra_2d(np.int64(1)) == minimal_algebra_2d(1)
    assert quad_field(np.int64(5)) == quad_field(5)
    assert type(quad_field(np.int64(5)).d) is int
    assert ideal_above(np.int64(3)).to_json() == ideal_above(3).to_json()
    assert type(ideal_above(np.int64(3)).norm) is int
    # the unit of Q(sqrt 526) outgrows int64; the cache is bypassed so the
    # numpy d itself reaches the continued fraction
    assert fundamental_unit(np.int64(526)) == fundamental_unit(526)
    assert regulator.__wrapped__(np.int64(526)) == regulator(526)


def test_checkers():
    assert check_real(np.float32(0.5), "x", 0) == 0.5
    assert check_real(Fraction(1, 3), "x", 0, strict=True) == Fraction(1, 3)
    assert check_real(math.inf, "cap", 0, strict=True, finite=False) == math.inf
    for bad in (math.nan, math.inf, -1, 0, "1", None, 1j):
        with pytest.raises(InputError, match="x must be a finite real > 0"):
            check_real(bad, "x", 0, strict=True)
    with pytest.raises(InputError, match="cap must be a real > 0"):
        check_real(math.nan, "cap", 0, strict=True, finite=False)
    assert check_int(np.uint8(7), "n", 1) == 7 and type(check_int(np.int64(7), "n")) is int
    for bad in (2.0, "3", np.float64(3), 0, None):
        with pytest.raises(InputError, match="n must be one of the integers >= 1"):
            check_int(bad, "n", 1)
