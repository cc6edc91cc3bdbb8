"""Real quadratic fields Q(sqrt(d)): splitting of primes, fundamental units,
regulators, the ascending walk over the units of all fields, and
_prime_factors, the one integer factorizer of the package (trial division).

All unit arithmetic is exact integers; floating point only enters at the
final logarithm.  regulator(d) takes it with enough working precision for
the unit's size; the regulator field list compares a float log with its
bound and takes the precise log only for a unit within rounding of it.
Units satisfy x^2 - disc*y^2 = +-4 with the unit equal to
(x + y*sqrt(disc))/2.  fundamental_unit(d) runs one field's continued
fraction; the regulator field list and the trace systole walk the units
of all fields in ascending order (_units).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import mpmath

from .errors import InputError, SysarithError, check_int, check_real

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (psi_k, k): psi_k is the least odd composite that is a strong probable prime
# to each of the first k prime bases, so below it those k bases decide
# primality.  psi_1 ... psi_8 are from Pomerance, Selfridge & Wagstaff (Math.
# Comp. 35, 1980) and Jaeschke (Math. Comp. 61, 1993), psi_9 = psi_10 = psi_11
# from Jiang & Deng (Math. Comp. 83, 2014), psi_12 and psi_13 from Sorenson &
# Webster (Math. Comp. 86, 2017).  psi_7 = psi_8 and psi_9 = psi_10 = psi_11:
# only the least k of each is listed.
_MR_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


# is_prime reads n below this from a sieve, so the splitting tests of a
# certificate, one per (field, member), run no Miller-Rabin on small members
_SIEVE_BELOW = 1 << 16


@functools.cache
def _small_primes() -> bytes:
    """flags[n] = 1 iff n is prime, for 0 <= n < _SIEVE_BELOW: the sieve of
    Eratosthenes, built on the first call, not at import."""
    flags = bytearray([1]) * _SIEVE_BELOW
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(_SIEVE_BELOW - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, _SIEVE_BELOW, p)))
    return bytes(flags)


def is_prime(n: int) -> bool:
    """Below _SIEVE_BELOW, a sieve lookup; above it, Miller-Rabin to the
    first k prime bases, k the least whose bound psi_k (see _MR_TIERS)
    exceeds n: deterministic for every n < psi_13 =
    3317044064679887385961981, about 3.3e24.  Above psi_13 it is a strong
    probable-prime test to the 13 bases 2 ... 41."""
    if n < _SIEVE_BELOW:
        return n >= 2 and _small_primes()[n] == 1
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    k = next((k for psi, k in _MR_TIERS if n < psi), len(_MR_BASES))
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    """(p, e) for each p^e exactly dividing n >= 1, p ascending, by trial
    division: 2, then odd p up to the square root of what is left."""
    e = (n & -n).bit_length() - 1
    if e:
        yield 2, e
        n >>= e
    p = 3
    while p * p <= n:
        for p in range(p, math.isqrt(n) + 1, 2):  # the next odd p dividing n
            if n % p == 0:
                break
        else:
            break  # none up to sqrt(n)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        yield p, e
    if n > 1:
        yield n, 1


def is_squarefree(n: int) -> bool:
    for _, e in _prime_factors(check_int(n, "n", 1)):
        if e > 1:
            return False
    return True


def squarefree_part(n: int) -> int:
    """The squarefree m with n = m * square, keeping the sign of n."""
    n = check_int(n, "n")
    if n == 0:
        raise InputError("0 has no squarefree part")
    m = 1
    for p, e in _prime_factors(abs(n)):
        if e & 1:
            m *= p
    return m if n > 0 else -m


def fundamental_discriminant(d: int) -> int:
    """Discriminant of Q(sqrt(d)) for squarefree d: d if d = 1 mod 4, else 4d."""
    return d if d % 4 == 1 else 4 * d


def kronecker(a: int, n: int) -> int:
    """General Kronecker symbol (a/n) for n >= 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    r = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            r = -r
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                r = -r
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            r = -r
        a %= n
    return r if n == 1 else 0


def kronecker_symbol(d: int, p: int) -> int:
    """(disc/p) for disc the discriminant of Q(sqrt(d)); 0 iff p | disc."""
    d, p = _check_d(d), check_int(p, "p")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return _disc_symbol(d, p)


def _check_d(d: int) -> int:
    """d, if it is a nonzero integer; else InputError."""
    d = check_int(d, "d")
    if d == 0:
        raise InputError("d must be nonzero")
    return d


def _disc_symbol(d: int, p: int) -> int:
    """kronecker_symbol(d, p) without its checks: d a nonzero int, p prime.

    d is not factored: divided by p^2 while it can be, d is disc or disc/4
    times a square prime to p.  So p | disc if p | d, or if p = 2 and
    d = 3 mod 4; else (d/p) = (disc/p)."""
    while d % (p * p) == 0:
        d //= p * p
    return 0 if d % p == 0 or (p == 2 and d % 4 == 3) else kronecker(d, p)


def splitting_type_q(field, p: int) -> str:
    d = field.d if isinstance(field, QuadFieldQ) else field
    s = kronecker_symbol(d, p)
    if s == 1:
        return SPLIT
    if s == -1:
        return INERT
    return RAMIFIED


def _check_field_d(d: int) -> int:
    d = check_int(d, "d", 2)
    if not is_squarefree(d):
        raise InputError(f"d must be squarefree, got {d}")
    return d


@dataclass(frozen=True)
class QuadFieldQ:
    """A real quadratic field Q(sqrt(d)), d >= 2 squarefree."""

    d: int
    disc: int

    @property
    def regulator(self) -> float:
        return regulator(self.d)

    def to_json(self) -> dict:
        return {"d": self.d, "disc": self.disc, "regulator": self.regulator}


def quad_field(d: int) -> QuadFieldQ:
    d = _check_field_d(d)
    return QuadFieldQ(d, fundamental_discriminant(d))


@dataclass(frozen=True)
class FundamentalUnit:
    """x, y with x^2 - disc*y^2 = 4*norm; the unit is (x + y*sqrt(disc))/2."""

    x: int
    y: int
    norm: int

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "norm": self.norm}


def _pqa_unit(D: int) -> FundamentalUnit:
    """Continued fraction of (P0 + sqrt(D))/2 for the discriminant D.

    Convergents G_i/B_i satisfy G^2 - D*B^2 = +-4 exactly at the period end;
    the period parity gives the unit norm.
    """
    sq = math.isqrt(D)
    P0 = sq if (sq - D) % 2 == 0 else sq - 1
    Q0 = 2
    P, Q = P0, Q0
    g_prev, g_prev2 = 2, -P0
    b_prev, b_prev2 = 0, 1
    length = 0
    while True:
        a = (P + sq) // Q
        g = a * g_prev + g_prev2
        b = a * b_prev + b_prev2
        length += 1
        P = a * Q - P
        Q = (D - P * P) // Q
        if P == P0 and Q == Q0:
            break
        g_prev2, g_prev = g_prev, g
        b_prev2, b_prev = b_prev, b
    norm = 1 if length % 2 == 0 else -1
    if g * g - D * b * b != 4 * norm:
        raise SysarithError(
            f"continued fraction of discriminant {D} ended off the unit "
            f"equation: {g}^2 - {D}*{b}^2 != {4 * norm}")
    return FundamentalUnit(g, b, norm)


def _unit_log(u: FundamentalUnit, disc: int) -> float:
    prec = max(80, u.x.bit_length() + 32)
    with mpmath.workprec(prec):
        val = (mpmath.mpf(u.x) + mpmath.mpf(u.y) * mpmath.sqrt(disc)) / 2
        return float(mpmath.log(val))


def fundamental_unit(d: int) -> FundamentalUnit:
    """Fundamental unit of Q(sqrt(d))."""
    d = _check_field_d(d)
    return _pqa_unit(fundamental_discriminant(d))


@functools.cache
def regulator(d: int) -> float:
    """log of the fundamental unit (norm -1 units included), memoized."""
    d = _check_field_d(d)
    return _unit_log(fundamental_unit(d), fundamental_discriminant(d))


def regulator_lower_bound(d: int) -> float:
    """log((sqrt(d-4) + sqrt(d))/2), increasing in d.

    At most the regulator of every Q(sqrt(d)) with d >= 5, and equal to it
    at d = n^2 + 4, whose fundamental unit is the walk's norm -1 unit of x = n.
    """
    d = check_int(d, "d", 4)
    return math.log((math.sqrt(d - 4) + math.sqrt(d)) / 2)


def _units(norms=(1, -1)):
    """(field, unit) for every unit > 1 of every real quadratic field, ascending.

    The unit of trace x and norm n is (x + sqrt(x^2 - 4n))/2, and
    eps(x, +1) < eps(x, -1) < eps(x + 1, +1), so walking x = 1, 2, ... with
    norm +1 before -1 meets the units in ascending order; the first unit
    met in a field is its fundamental unit.  norms=(1,) yields only the
    norm +1 units, the integer traces.  Endless: callers stop it.
    """
    for x in itertools.count(1):
        for norm in norms:
            m = x * x - 4 * norm
            if m > 0:
                d = squarefree_part(m)
                disc = fundamental_discriminant(d)
                yield QuadFieldQ(d, disc), FundamentalUnit(x, math.isqrt(m // disc), norm)


# The float log of a unit (x + y*sqrt(disc))/2 with x < 2^53 is within 1e-14
# of the true log below e^10: disc's conversion, the sqrt, the product and the
# sum each round by a relative 2^-53 at most, 4.5e-16 in the log, and the log
# itself by an ulp of a value below 10, 1.8e-15.  _unit_log is within an ulp
# of the true log.  So a float log more than _FLOAT_SLACK from a
# bound <= 10 lies on the side of it that _unit_log's does, and only a log
# within the slack takes the mpmath path.
_FLOAT_SLACK = 1e-9


def _log_below(u: FundamentalUnit, disc: int, bound: float) -> bool:
    """_unit_log(u, disc) < bound for bound <= 10, by a float log unless that
    lies within _FLOAT_SLACK of the bound or x >= 2^53."""
    if u.x < 1 << 53:
        approx = math.log((u.x + u.y * math.sqrt(disc)) / 2)
        if abs(approx - bound) > _FLOAT_SLACK:
            return approx < bound
    return _unit_log(u, disc) < bound


def fields_with_regulator_below(bound: float) -> list[QuadFieldQ]:
    """All real quadratic fields with regulator < bound, ascending d.

    Reads the unit walk: each field's first unit is its fundamental unit,
    and its log is the value regulator(d) returns.  A unit below e^bound
    has trace x < e^bound + 1, so the walk stops one x past that.  Each
    field is tested by a float log of its unit, and by _unit_log's mpmath
    log only where the float lies within _FLOAT_SLACK of the bound, so the
    list is the one the mpmath log alone gives.
    """
    check_real(bound, "bound", 0, strict=True)
    if bound > 10:
        raise InputError(
            f"regulator bound {bound} would walk ~e^bound unit traces; "
            "bounds above 10 are not supported")
    last = math.floor(math.exp(bound)) + 2
    first = {}
    for field, u in itertools.takewhile(lambda fu: fu[1].x <= last, _units()):
        first.setdefault(field, u)
    return sorted((f for f, u in first.items() if _log_below(u, f.disc, bound)),
                  key=lambda f: f.d)
