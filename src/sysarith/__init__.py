"""Systoles of arithmetic hyperbolic surfaces and 3-manifolds.

Searches for minimal-coarea quaternion algebras over Q and Q(i) whose
associated manifolds have systole length above a given bound, plus the
supporting number theory: real quadratic units and regulators, Gaussian
prime ideals and relative discriminants, embedding obstructions, covolume
formulas, geodesic length spectra, same-systole families, and explicit
cover constructions.
"""

from .constructions import (
    CoverResult, FamilyEntry, cover_algebra_2d, cover_algebra_3d, growth_check,
    multiquadratic_discriminant, primorial_log_bound,
    real_fields_with_disc_below, same_systole_family_q, silverman_disc_bound,
    systole_field_q, theorem_area_log_bound_2d,
)
from .errors import (
    EXIT_INPUT_ERROR, EXIT_NO_CANDIDATE, EXIT_OK, DegenerateExtensionError,
    InadmissibleAlgebraError, InputError, NoCandidateError, NonHyperbolicError,
    SysarithError,
)
from .gaussian import (
    GaussianInt, GaussianPrimeIdeal, GaussianQuadExt, canonical_associate,
    canonicalize_delta, factor_gaussian, gaussian_primes_up_to_norm,
    ideal_above, quad_ext, quad_exts_with_disc_below, quad_residue_symbol,
    relative_discriminant, splitting_in_ext, splitting_in_qi,
)
from .geodesics import (
    MODE_PAPER, MODE_TRACE, SystoleResult, exact_systole_q,
    geodesic_length_from_trace,
)
from .quaternion import (
    QuaternionAlgebraQ, QuaternionAlgebraQi, algebra_q, algebra_qi, embeds_q,
    embeds_qi, excluded_fields_subset, is_admissible, require_admissible,
    torsion_free_q, torsion_free_qi,
)
from .real_quadratic import (
    FundamentalUnit, QuadFieldQ, fields_with_regulator_below,
    fundamental_discriminant, fundamental_unit, is_prime, is_squarefree,
    kronecker_symbol, quad_field, regulator, regulator_lower_bound,
    splitting_type_q, squarefree_part,
)
from .search import (
    AssignmentReport, ExclusionReport, SearchResult, minimal_algebra_2d,
    valid_algebra_3d, verify_exclusion_3d,
)
from .volume import (
    area_factor, coarea_q, format_volume, volume_constant_qi, volume_qi,
)

__version__ = "1.0.0"

__all__ = [
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
