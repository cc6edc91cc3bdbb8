"""Shared exception types and CLI exit codes."""

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
