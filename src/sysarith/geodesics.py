"""Closed geodesic lengths from traces, and exact smallest geodesics.

A hyperbolic element of trace t (|t| > 2) has translation length
2*arccosh(|t|/2) = 2*log((|t| + sqrt(t^2 - 4))/2) on the upper half plane;
surface convention here halves that to log(...), and the 3-manifold value
doubles the surface one.  An integer trace t is the norm +1 unit
(t + sqrt(t^2 - 4))/2 of Q(sqrt(t^2 - 4)), so the traces in ascending order
are the norm +1 units of real_quadratic's unit walk.

That unit is a power of the fundamental unit, so an embeddable trace field's
regulator is at most the trace's length and bounds the regulator minimum;
conversely the squared fundamental unit of the minimizing field has norm +1
and an integer trace, so the first embeddable trace is at most twice that
minimum long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, NonHyperbolicError, check_int, check_real
from .quaternion import QuaternionAlgebraQ, embeds_q, require_admissible
from .real_quadratic import QuadFieldQ, _units, fields_with_regulator_below, regulator

MODE_PAPER = "paper"
MODE_TRACE = "trace"
MODES = (MODE_PAPER, MODE_TRACE)


def geodesic_length_from_trace(t: int, dimension: int = 2) -> float:
    """Length of the closed geodesic of trace t; doubled in dimension 3."""
    if dimension not in (2, 3):
        raise InputError(f"dimension must be 2 or 3, got {dimension}")
    a = abs(check_int(t, "trace t"))
    if a <= 2:
        raise NonHyperbolicError(f"trace {t} is not hyperbolic")
    length = math.log((a + math.sqrt(a * a - 4)) / 2)
    return 2 * length if dimension == 3 else length


@dataclass(frozen=True)
class SystoleResult:
    """Shortest geodesic found below the cap, or found=False if none."""

    found: bool
    length: float | None = None
    mode: str = MODE_PAPER
    field: QuadFieldQ | None = None
    trace: int | None = None

    def to_json(self) -> dict:
        if not self.found:
            return {"found": False, "mode": self.mode}
        out = {
            "found": True,
            "mode": self.mode,
            "length": self.length,
            "d": self.field.d,
        }
        if self.trace is not None:
            out["trace"] = self.trace
        return out


def _first_embeddable_trace(B: QuaternionAlgebraQ, cap: float) -> tuple[int, QuadFieldQ] | None:
    """The least trace t >= 3 of length <= cap whose field embeds in B.

    Every norm +1 unit counts, also in a field first met at a norm -1 unit:
    [47, 71] has trace 11, in Q(sqrt 13) of fundamental unit (3 + sqrt 13)/2.
    """
    for field, u in _units(norms=(1,)):
        if geodesic_length_from_trace(u.x) > cap:
            return None
        if embeds_q(field, B):
            return u.x, field


def exact_systole_q(B: QuaternionAlgebraQ, mode: str = MODE_PAPER, cap: float = 5.0) -> SystoleResult:
    """Smallest geodesic length on the surface of B, searched up to cap.

    Mode "paper" minimizes the regulator over embeddable real quadratic
    fields with regulator < cap; mode "trace" scans integer traces t >= 3
    with length(t) <= cap and reports the first embeddable one.  The two
    agree whenever the minimizing unit has norm +1 or its square stays
    under the cap; they are cross-checked in the tests.

    Both modes read real_quadratic's unit walk.  Paper mode lists the fields
    below the regulator of the first embeddable trace's field, at most twice
    the systole, so its cost grows with the systole; the cap bounds the list
    only when no embeddable trace is as short as the cap.
    """
    require_admissible(B)
    check_real(cap, "cap", 0, strict=True, finite=False)
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    hit = _first_embeddable_trace(B, cap)
    if mode == MODE_TRACE:
        if hit is None:
            return SystoleResult(found=False, mode=mode)
        t, field = hit
        return SystoleResult(True, geodesic_length_from_trace(t), mode, field, t)
    bound = cap if hit is None else min(cap, math.nextafter(regulator(hit[1].d), math.inf))
    best = None
    for field in fields_with_regulator_below(bound):
        if embeds_q(field, B):
            key = (regulator(field.d), field.d)
            if best is None or key < best[0]:
                best = (key, field)
    if best is None:
        return SystoleResult(found=False, mode=mode)
    (length, _), field = best
    return SystoleResult(True, length, mode, field)
