"""Quaternion algebras given by ramification sets, over Q and over Q(i).

An admissible set has even cardinality >= 2 (no archimedean ramification is
allowed, so the finite set alone must have even size).  A quadratic field
embeds into the algebra iff no ramified prime splits in it; that single
predicate drives every search and certificate in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InadmissibleAlgebraError, InputError, check_int
from .gaussian import (
    GaussianInt,
    GaussianPrimeIdeal,
    GaussianQuadExt,
    _ideal_key,
    quad_residue_symbol,
    splitting_in_ext,
)
from .real_quadratic import SPLIT, QuadFieldQ, _check_d, _disc_symbol, is_prime


@dataclass(frozen=True)
class QuaternionAlgebraQ:
    """The algebra ramified at the primes in ram.  Each is checked to be an
    int prime once, here, so embeds_q reads them unchecked."""

    ram: frozenset[int]

    def __post_init__(self):
        for p in self.ram:
            if not (isinstance(p, int) and is_prime(p)):
                raise InputError(f"ramification set contains non-prime {p!r}")

    @property
    def ram_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.ram))

    def to_json(self) -> dict:
        return {"base": "Q", "ram": list(self.ram_sorted)}


@dataclass(frozen=True)
class QuaternionAlgebraQi:
    ram: frozenset[GaussianPrimeIdeal]

    @property
    def ram_sorted(self) -> tuple[GaussianPrimeIdeal, ...]:
        return tuple(sorted(self.ram, key=_ideal_key))

    @property
    def ram_norms(self) -> tuple[int, ...]:
        return tuple(sorted(P.norm for P in self.ram))

    def to_json(self) -> dict:
        return {"base": "Qi", "ram": [P.to_json() for P in self.ram_sorted]}


def algebra_q(primes: Iterable[int]) -> QuaternionAlgebraQ:
    return QuaternionAlgebraQ(frozenset(check_int(p, "prime") for p in primes))


def algebra_qi(ideals: Iterable[GaussianPrimeIdeal]) -> QuaternionAlgebraQi:
    ram = frozenset(ideals)
    for P in ram:
        if not isinstance(P, GaussianPrimeIdeal):
            raise InputError(f"expected GaussianPrimeIdeal, got {P!r}")
    return QuaternionAlgebraQi(ram)


def is_admissible(B) -> bool:
    if not isinstance(B, (QuaternionAlgebraQ, QuaternionAlgebraQi)):
        raise InputError(
            "expected a quaternion algebra (build one with algebra_q or "
            f"algebra_qi), got {type(B).__name__}"
        )
    n = len(B.ram)
    return n >= 2 and n % 2 == 0


def require_admissible(B) -> None:
    if not is_admissible(B):
        raise InadmissibleAlgebraError(
            f"ramification set must have even cardinality >= 2, got {len(B.ram)}"
        )


def embeds_q(field, B: QuaternionAlgebraQ) -> bool:
    """Q(sqrt(d)) embeds iff no ramified prime splits in it.  Empty ram: True.

    d is checked once; B's primes were checked when B was built."""
    d = _check_d(field.d if isinstance(field, QuadFieldQ) else field)
    return all(_disc_symbol(d, p) != 1 for p in B.ram)


def embeds_qi(ext: GaussianQuadExt, B: QuaternionAlgebraQi) -> bool:
    return all(splitting_in_ext(P, ext) != SPLIT for P in B.ram)


# The torsion conditions, one per killed torsion order: B is torsion-free iff
# each holds at some ramified prime.  Over Q(i), Q(i)(zeta_8) = Q(i)(sqrt(2))
# and Q(i)(zeta_12) = Q(i)(sqrt(3)), so an odd P at which 2 (resp. 3) is a
# square obstructs the torsion-generating extension.
_TWO, _THREE = GaussianInt(2, 0), GaussianInt(3, 0)
TORSION_Q = (lambda p: p % 4 == 1, lambda p: p % 3 == 1)
TORSION_QI = (lambda P: P.norm % 2 == 1 and quad_residue_symbol(_TWO, P) == 1,
              lambda P: P.norm % 2 == 1 and quad_residue_symbol(_THREE, P) == 1)


def _unmet(conditions, ram) -> list:
    """The conditions that no member of ram meets."""
    return [c for c in conditions if not any(c(m) for m in ram)]


def torsion_free_q(B: QuaternionAlgebraQ) -> bool:
    """Kills 2- and 3-torsion: some p = 1 mod 4 and some p = 1 mod 3 ramify."""
    return not _unmet(TORSION_Q, B.ram)


def torsion_free_qi(B: QuaternionAlgebraQi) -> bool:
    """Some odd ramified prime sees 2 as a square, and some sees 3."""
    return not _unmet(TORSION_QI, B.ram)


def excluded_fields_subset(A, B, pool) -> bool:
    """True if every pool field that fails to embed in A also fails in B.

    Requires ram(A) to be a subset of ram(B); then embedding obstructions
    can only grow, and this check certifies it on the given pool.
    """
    if not set(A.ram) <= set(B.ram):
        raise InputError("ram(A) must be contained in ram(B)")
    if isinstance(A, QuaternionAlgebraQi):
        return all(embeds_qi(L, A) or not embeds_qi(L, B) for L in pool)
    return all(embeds_q(L, A) or not embeds_q(L, B) for L in pool)
