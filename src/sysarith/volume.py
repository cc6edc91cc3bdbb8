"""Covolume formulas: coarea over Q, volume over Q(i), and display formatting.

Both formulas share the integer area factor prod(N(p) - 1) over the ramified
primes; only the leading constant differs.  The factor is kept exact, the
constant is evaluated once to double precision via mpmath.
"""

from __future__ import annotations

import functools
import math
from decimal import ROUND_HALF_EVEN, Decimal

import mpmath

from .quaternion import QuaternionAlgebraQi, require_admissible


def area_factor(B) -> int:
    """prod over ramified primes of (norm - 1); empty product is 1."""
    out = 1
    if isinstance(B, QuaternionAlgebraQi):
        for P in B.ram:
            out *= P.norm - 1
    else:
        for p in B.ram:
            out *= p - 1
    return out


def coarea_q(B) -> float:
    """(pi/3) * area_factor for an admissible algebra over Q."""
    require_admissible(B)
    return math.pi / 3 * area_factor(B)


@functools.cache
def volume_constant_qi() -> float:
    """zeta_{Q(i)}(2) * |disc|^(3/2) / (4 pi^2) with disc = -4, = Catalan/3.

    zeta_{Q(i)} = zeta * beta factors the Dedekind zeta, and zeta(2) = pi^2/6
    with beta(2) = Catalan's constant G gives 8 * (pi^2/6) * G / (4 pi^2)
    = G/3.  The lattice sum tests/oracles.lattice_zeta_qi gives an
    independent slow check.
    """
    with mpmath.workprec(80):
        return float(mpmath.catalan / 3)


def volume_qi(B: QuaternionAlgebraQi) -> float:
    require_admissible(B)
    return volume_constant_qi() * area_factor(B)


def format_volume(v: float) -> str:
    """Two decimals (banker's rounding) below 1e8, else 5 significant digits."""
    if v < 1e8:
        return str(Decimal(repr(v)).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))
    return f"{v:.4e}"
