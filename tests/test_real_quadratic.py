"""Real quadratic fields: units, regulators, splitting, and the field scan."""

import math
import os
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sysarith import real_quadratic
from sysarith.errors import InputError
from sysarith.real_quadratic import (
    FundamentalUnit,
    fields_with_regulator_below,
    fundamental_discriminant,
    fundamental_unit,
    is_prime,
    is_squarefree,
    kronecker,
    kronecker_symbol,
    quad_field,
    regulator,
    regulator_lower_bound,
    splitting_type_q,
    squarefree_part,
)

from oracles import (
    brute_fundamental_unit,
    brute_is_squarefree,
    brute_splitting_q,
    brute_squarefree_part,
    sieve_primes,
    walk_unit_logs,
)

# regulators frozen from the independent continued-fraction computation
FROZEN_REGULATORS = {
    2: 0.881373587019543,
    3: 1.3169578969248166,
    5: 0.4812118250596035,
    10: 1.8184464592320668,
    13: 1.1947632172871094,
    15: 2.0634370688955608,
    17: 2.0947125472611012,
    77: 2.1846437916051066,
}


def test_basic_predicates_against_sympy():
    for n in range(-2, 500):
        assert is_prime(n) == sympy.isprime(n), n
    for n in range(1, 500):
        assert is_squarefree(n) == brute_is_squarefree(n), n
        assert squarefree_part(n) == brute_squarefree_part(n), n
        assert squarefree_part(-n) == brute_squarefree_part(-n), -n


# psi_k, the least odd composite that is a strong probable prime to each of
# the first k prime bases (OEIS A014233), for k = 1 ... 13
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981]


def test_is_prime_rejects_every_psi_k():
    # psi_12 passed the 12 bases 2 ... 37; base 41 rejects it
    for psi in PSI[:12]:
        assert not sympy.isprime(psi)
        assert not is_prime(psi), psi


def test_is_prime_matches_sympy_around_each_tier_limit():
    # random n within 10^6 of each limit, the primes next to it, and products
    # of two primes near its square root, on both sides of it; psi_13 itself
    # is a strong probable prime to all 13 bases, past the proven range
    rng = random.Random(31)
    for psi, _ in real_quadratic._MR_TIERS:
        ns = [psi - 1, psi + 1, sympy.prevprime(psi), sympy.nextprime(psi)]
        ns += [psi + rng.randint(-10 ** 6, 10 ** 6) for _ in range(300)]
        root = math.isqrt(psi)
        for _ in range(20):
            p = sympy.nextprime(root - rng.randint(1, root // 2))
            ns += [p * sympy.prevprime(psi // p + 1), p * sympy.nextprime(psi // p)]
        for n in ns:
            assert is_prime(n) == sympy.isprime(n), n
        assert any(n < psi for n in ns) and any(n > psi for n in ns)


def test_is_prime_reads_small_n_from_a_sieve_built_on_first_use():
    # every n up to 2^10 past the sieve's end, against the oracle sieve
    end = real_quadratic._SIEVE_BELOW
    assert [n for n in range(-2, end + 1024) if is_prime(n)] == sieve_primes(end + 1023)
    assert not is_prime(end) and is_prime(65537) and end == 65536
    # kronecker_symbol still refuses a composite p below the sieve's end
    for p in (1, 4, 9, 65535):
        with pytest.raises(InputError, match=f"{p} is not prime"):
            kronecker_symbol(5, p)
    # importing the package builds no sieve
    code = "import sysarith.real_quadratic as r; print(r._small_primes.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(real_quadratic.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


def test_prime_factors_against_sympy():
    # every n <= 10^4, then random n <= 10^12 among which prime squares
    # times a cofactor, powers of two and products of two 6-digit primes
    rng = random.Random(23)
    primes6 = [sympy.prevprime(rng.randrange(2 * 10 ** 5, 10 ** 6)) for _ in range(12)]
    big = [rng.randrange(1, 10 ** 12) for _ in range(150)]
    big += [p * p * rng.randrange(1, 10 ** 6) for p in primes6]
    big += [2 ** k for k in range(40)] + [2 ** k * 3 ** j for k in (1, 5) for j in (2, 7)]
    big += [p * q for p, q in zip(primes6, primes6[1:])] + [primes6[0] ** 2]
    for n in [*range(1, 10 ** 4 + 1), *big]:
        want = sorted(sympy.factorint(n).items())
        assert list(real_quadratic._prime_factors(n)) == want, n
        assert is_squarefree(n) == all(e == 1 for _, e in want), n
        assert squarefree_part(-n) == -math.prod(p for p, e in want if e % 2), n


@given(st.integers(min_value=2, max_value=10 ** 6))
def test_squarefree_part_decomposition(n):
    s = squarefree_part(n)
    q = n // s
    assert s * q == n
    r = math.isqrt(q)
    assert r * r == q  # cofactor is a perfect square
    assert brute_is_squarefree(s)


def test_fundamental_discriminant():
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(3) == 12
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(-3) == -3


def test_splitting_against_brute_force():
    primes = [p for p in range(2, 80) if is_prime(p)]
    for d in range(2, 60):
        if not is_squarefree(d):
            continue
        f = quad_field(d)
        for p in primes:
            assert splitting_type_q(f, p) == brute_splitting_q(d, p), (d, p)


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 4))
def test_kronecker_total_definition(a, n):
    # kronecker(a, n) is defined for all n >= 0 and lies in {-1, 0, 1}
    assert kronecker(a, n) in (-1, 0, 1)


@given(st.integers(min_value=-500, max_value=500),
       st.integers(min_value=-500, max_value=500),
       st.integers(min_value=1, max_value=300))
def test_kronecker_multiplicative(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_symbol_matches_legendre():
    for d in (2, 3, 5, 13, 77):
        disc = fundamental_discriminant(d)
        for p in (3, 5, 7, 11, 13, 101):
            expect = pow(disc, (p - 1) // 2, p) if disc % p else 0
            expect = -1 if expect == p - 1 else expect
            if p != 2:
                assert kronecker_symbol(d, p) == expect, (d, p)
    with pytest.raises(InputError):
        kronecker_symbol(5, 6)


def test_kronecker_symbol_of_any_d_against_its_squarefree_part():
    # the symbol is read off d itself, signs, squares and powers of p
    # included; the oracle splits p in the field of d's squarefree part
    code = {"split": 1, "inert": -1, "ramified": 0}
    for d in [*range(-400, 0), *range(1, 401), 2 ** 9 * 3, -(3 ** 7) * 5, 5 ** 6 * 7 * 11 ** 2]:
        s = brute_squarefree_part(d)
        for p in (2, 3, 5, 7, 11, 13, 101):
            assert kronecker_symbol(d, p) == code[brute_splitting_q(s, p)], (d, p)


UNIT_SAMPLE = [2, 3, 5, 6, 7, 10, 13, 15, 17, 21, 29, 53, 61, 77, 85, 94, 109]


def test_fundamental_unit_minimality_against_brute_force():
    for d in UNIT_SAMPLE:
        u = fundamental_unit(d)
        assert (u.x, u.y, u.norm) == brute_fundamental_unit(d), d
        disc = fundamental_discriminant(d)
        assert u.x * u.x - disc * u.y * u.y == 4 * u.norm
    # Q(sqrt 94) has disc 4*94 and unit 2143295 + 221064 sqrt(94), log ~ 15.3
    assert fundamental_unit(94) == FundamentalUnit(4286590, 221064, 1)
    assert fundamental_unit(94).y == 221064


def test_frozen_regulators():
    for d, reg in FROZEN_REGULATORS.items():
        assert regulator(d) == pytest.approx(reg, abs=1e-12), d


def test_regulator_lower_bound_is_a_lower_bound():
    for d in UNIT_SAMPLE:
        if d >= 5:
            assert regulator_lower_bound(d) <= regulator(d) + 1e-12, d
    with pytest.raises(InputError):
        regulator_lower_bound(3)


def test_fields_with_regulator_below():
    assert [f.d for f in fields_with_regulator_below(0.5)] == [5]
    assert [f.d for f in fields_with_regulator_below(1.0)] == [2, 5]
    assert [f.d for f in fields_with_regulator_below(2.25)] == [
        2, 3, 5, 10, 13, 15, 17, 21, 29, 53, 77, 85]
    assert [f.d for f in fields_with_regulator_below(2.7)] == [
        2, 3, 5, 6, 10, 13, 15, 17, 21, 26, 29, 35, 37, 53, 77, 85, 165, 173]


def test_fields_with_regulator_below_matches_pell_scan(pell_fields_below_6):
    # the Pell scan stops at the regulator bound, so it also settles fields
    # such as d = 139, whose unit lies beyond brute_fundamental_unit's y limit;
    # its list at 5 is its list at 6 cut at 5
    for bound in (5.0, 6.0):
        assert [f.d for f in fields_with_regulator_below(bound)] == [
            d for d, reg in pell_fields_below_6 if reg < bound]
    for d, reg in pell_fields_below_6:
        assert regulator(d) == pytest.approx(reg, rel=1e-12)


def test_fields_with_regulator_below_keeps_n2_plus_4_at_its_regulator():
    # at d = n^2 + 4 the unit (n + sqrt(d))/2 meets regulator_lower_bound,
    # whose float can round above the regulator (d = 13 does); the scan
    # must still reach d for every bound just above its regulator
    for n in range(1, 60):
        d = n * n + 4
        if not brute_is_squarefree(d):
            continue
        reg = regulator(d)
        assert reg == pytest.approx(math.log((n + math.sqrt(d)) / 2), rel=1e-12)
        assert d in [f.d for f in fields_with_regulator_below(math.nextafter(reg, math.inf))], d
        assert d not in [f.d for f in fields_with_regulator_below(reg)], d


def test_field_list_walks_units_without_continued_fractions(monkeypatch):
    # the list reads each field's unit off the walk over traces x up to
    # e^3 + 2, two norms each, and runs no continued fraction; a scan over
    # d < 4 cosh(3)^2 ran one for each of its 246 squarefree d
    fractions, parts = [], []
    pqa, part = real_quadratic._pqa_unit, real_quadratic.squarefree_part

    def spy_pqa(D, *cutoff):
        fractions.append(D)
        return pqa(D, *cutoff)

    def spy_part(n):
        parts.append(n)
        return part(n)

    monkeypatch.setattr(real_quadratic, "_pqa_unit", spy_pqa)
    monkeypatch.setattr(real_quadratic, "squarefree_part", spy_part)
    regulator.cache_clear()
    fields = fields_with_regulator_below(3.0)
    assert fractions == []
    assert 0 < len(parts) <= 2 * (math.floor(math.exp(3.0)) + 2)
    monkeypatch.undo()
    assert all(f.regulator < 3.0 for f in fields)


@pytest.fixture(scope="module")
def logs_below_e7():
    return walk_unit_logs(math.floor(math.exp(7)) + 2)


def _listed_with_spy(monkeypatch, bound):
    """fields_with_regulator_below(bound)'s d's, and the mpmath logs that
    it took."""
    taken, unit_log = [], real_quadratic._unit_log

    def spy(u, disc):
        taken.append((disc, unit_log(u, disc)))
        return taken[-1][1]

    monkeypatch.setattr(real_quadratic, "_unit_log", spy)
    listed = [f.d for f in fields_with_regulator_below(bound)]
    monkeypatch.undo()
    assert all(abs(log - bound) <= real_quadratic._FLOAT_SLACK + 1e-12 for _, log in taken)
    return listed, taken


def test_float_field_test_matches_the_mpmath_logs_on_a_grid(logs_below_e7, monkeypatch):
    # no field's log lies within the slack of a bound k/4, so no mpmath log
    # is taken; a unit of log below 7 has trace at most e^7 + 2
    for k in range(2, 29):
        listed, taken = _listed_with_spy(monkeypatch, k / 4)
        assert listed == sorted(d for d, log in logs_below_e7.items() if log < k / 4), k
        assert taken == []


def test_float_field_test_falls_back_at_a_regulator(logs_below_e7, monkeypatch):
    # at a bound equal to a field's regulator, or one float either side of
    # it, the float log of that field cannot decide; the mpmath log must,
    # and is taken for no field outside the slack
    for d, log in list(logs_below_e7.items())[:300]:
        assert regulator(d) == log, d
        for bound in (math.nextafter(log, -math.inf), log, math.nextafter(log, math.inf)):
            listed, taken = _listed_with_spy(monkeypatch, bound)
            assert listed == sorted(e for e, v in logs_below_e7.items() if v < bound), (d, bound)
            assert fundamental_discriminant(d) in [disc for disc, _ in taken], (d, bound)


def test_fields_with_regulator_below_guards():
    with pytest.raises(InputError):
        fields_with_regulator_below(0.0)
    with pytest.raises(InputError):
        fields_with_regulator_below(11.0)


def test_quad_field_validation():
    with pytest.raises(InputError):
        quad_field(12)  # not squarefree
    with pytest.raises(InputError):
        quad_field(1)
    with pytest.raises(InputError):
        quad_field(-5)

