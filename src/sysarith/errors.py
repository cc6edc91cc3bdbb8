"""Shared exception types, CLI exit codes, and the argument checkers that
every public entry point calls, so that a malformed argument raises
InputError.  Both checkers accept numpy scalars through the numbers ABCs."""

import math
import numbers

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_CANDIDATE = 2


class SysarithError(Exception):
    """Base class for all package errors."""


class InputError(SysarithError, ValueError):
    """Invalid argument: bad prime, unrealizable norm, malformed value."""


class DegenerateExtensionError(InputError):
    """delta lies in the trivial square class, so Q(i)(sqrt(delta)) = Q(i)."""


class NonHyperbolicError(InputError):
    """A trace with |t| <= 2 defines no closed geodesic."""


class InadmissibleAlgebraError(InputError):
    """Ramification set violates the even-cardinality >= 2 requirement."""


class NoCandidateError(SysarithError):
    """A search ran out of candidates without finding a valid one."""


def _reject(name: str, kind: str, lo, strict: bool, value):
    bound = "" if lo == -math.inf else f" {'>' if strict else '>='} {lo}"
    raise InputError(f"{name} must be {kind}{bound}, got {value!r}")


def check_real(value, name: str, lo=-math.inf, *, strict: bool = False,
               finite: bool = True):
    """value, if it is a real number >= lo (> lo if strict), and finite
    unless finite=False; else InputError.  NaN never passes."""
    if not (isinstance(value, numbers.Real)
            and (value > lo if strict else value >= lo)
            and (not finite or math.isfinite(value))):
        _reject(name, "a finite real" if finite else "a real", lo, strict, value)
    return value


def check_int(value, name: str, lo=-math.inf) -> int:
    """int(value), if value is an integer >= lo; else InputError.

    A plain int returns at once, without the ABC test (0.3 us) or the int()
    call: the Q covers' field scan checks each d in range, and the unit
    walk's embeds_q checks the d of each unit it meets."""
    if type(value) is int and value >= lo:
        return value
    if not (isinstance(value, numbers.Integral) and value >= lo):
        _reject(name, "one of the integers", lo, False, value)
    return int(value)
