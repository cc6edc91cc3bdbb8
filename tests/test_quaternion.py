"""Quaternion algebras over Q and Q(i): admissibility, embedding, torsion."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sysarith.errors import InadmissibleAlgebraError, InputError
from sysarith.gaussian import (
    GaussianInt,
    gaussian_primes_up_to_norm,
    ideal_above,
    quad_ext,
)
from sysarith.quaternion import (
    QuaternionAlgebraQ,
    algebra_q,
    algebra_qi,
    embeds_q,
    embeds_qi,
    excluded_fields_subset,
    is_admissible,
    require_admissible,
    torsion_free_q,
    torsion_free_qi,
)
from sysarith.real_quadratic import kronecker_symbol, quad_field, splitting_type_q

from oracles import brute_is_squarefree, brute_splitting_q, sieve_primes


def test_algebra_q_validation_and_order():
    B = algebra_q([11, 2])
    assert B.ram_sorted == (2, 11)
    assert B.to_json() == {"base": "Q", "ram": [2, 11]}
    with pytest.raises(InputError, match="contains non-prime 9"):
        algebra_q([2, 9])
    with pytest.raises(InputError, match="prime must be one of the integers, got 2.0"):
        algebra_q([2.0, 3])
    with pytest.raises(InputError, match="contains non-prime 1"):
        algebra_q([1, 5])


@pytest.mark.parametrize("ram", [frozenset({4, 7}), frozenset({2.0, 3}), frozenset({1, 5})],
                         ids=["non-prime 4", "float 2.0", "unit 1"])
def test_quaternion_algebra_q_checks_its_primes_when_built(ram):
    # embeds_q reads B.ram unchecked, so every algebra, however built, holds
    # int primes only
    with pytest.raises(InputError, match="ramification set contains non-prime"):
        QuaternionAlgebraQ(ram)


def test_embeds_q_checks_d_and_kronecker_symbol_checks_p():
    B = algebra_q([2, 31])
    with pytest.raises(InputError, match="d must be nonzero"):
        embeds_q(0, B)
    with pytest.raises(InputError, match="d must be one of the integers, got 1.5"):
        embeds_q(1.5, B)
    with pytest.raises(InputError, match="4 is not prime"):
        kronecker_symbol(5, 4)


def test_embeds_q_matches_the_splitting_oracle():
    rng = random.Random(20)
    primes = sieve_primes(200)
    for _ in range(5):
        ram = rng.sample(primes, rng.choice((2, 4, 6)))
        B = algebra_q(ram)
        for d in range(2, 2000):
            if brute_is_squarefree(d):
                expect = all(brute_splitting_q(d, p) != "split" for p in ram)
                assert embeds_q(d, B) == embeds_q(quad_field(d), B) == expect, (ram, d)


def test_algebra_qi_validation_and_order():
    B = algebra_qi([ideal_above(5, conjugate=True), ideal_above(2)])
    assert B.ram_norms == (2, 5)
    assert [P.gen for P in B.ram_sorted] == [GaussianInt(1, 1), GaussianInt(1, 2)]
    with pytest.raises(InputError):
        algebra_qi([5])


def test_admissibility():
    assert is_admissible(algebra_q([2, 11]))
    assert is_admissible(algebra_q([2, 3, 5, 7]))
    assert not is_admissible(algebra_q([]))
    assert not is_admissible(algebra_q([2]))
    assert not is_admissible(algebra_q([2, 3, 5]))
    require_admissible(algebra_q([2, 11]))
    with pytest.raises(InadmissibleAlgebraError):
        require_admissible(algebra_q([2, 3, 5]))


def test_embeds_q_is_no_ramified_prime_splits():
    primes = sieve_primes(60)
    for d in (2, 3, 5, 13, 77):
        f = quad_field(d)
        for p in primes:
            for q in primes:
                if p >= q:
                    continue
                B = algebra_q([p, q])
                expect = (splitting_type_q(f, p) != "split"
                          and splitting_type_q(f, q) != "split")
                assert embeds_q(f, B) == expect, (d, p, q)


def test_embeds_q_known_cases():
    assert embeds_q(quad_field(2), algebra_q([2, 11]))   # 2 ramifies, 11 inert
    assert embeds_q(quad_field(17), algebra_q([2, 11])) is False  # 2 splits
    assert embeds_q(quad_field(77), algebra_q([3, 5, 7, 11]))
    assert embeds_q(13, algebra_q([2, 31]))
    assert embeds_q(5, algebra_q([2, 31])) is False      # 31 splits
    assert embeds_q(13, algebra_q([]))  # empty ramification obstructs nothing


def test_embeds_qi_uses_every_ramified_prime():
    e = quad_ext(GaussianInt(1, 4))
    B_bad = algebra_qi([ideal_above(2), ideal_above(5, conjugate=True)])
    B_good = algebra_qi([ideal_above(2), ideal_above(5)])
    assert embeds_qi(e, B_bad) is False  # (1+2i) splits in it
    assert embeds_qi(e, B_good) is True


def test_torsion_free_q():
    assert torsion_free_q(algebra_q([13, 5])) is True   # 13 = 1 mod 4 and mod 3
    assert torsion_free_q(algebra_q([5, 7])) is True    # 5 = 1 mod 4, 7 = 1 mod 3
    assert torsion_free_q(algebra_q([2, 11])) is False  # nothing = 1 mod 4
    assert torsion_free_q(algebra_q([5, 11])) is False  # nothing = 1 mod 3
    assert torsion_free_q(algebra_q([13, 17])) is True


def test_torsion_free_qi():
    # in F_49 both 2 and 3 are squares, so the inert prime (7) alone works
    assert torsion_free_qi(algebra_qi([ideal_above(2), ideal_above(7)]))
    # norm-5 residue fields have squares {1,4}: neither 2 nor 3
    assert not torsion_free_qi(algebra_qi([ideal_above(2), ideal_above(5)]))
    # (2+5i) has norm 29: 2 is not a square mod 29, but... pair it
    assert not torsion_free_qi(algebra_qi([ideal_above(2)]))


def test_excluded_fields_monotone_under_ram_growth():
    """Growing the ramification set can only lose embeddings, never gain."""
    primes = sieve_primes(60)
    pool = [quad_field(d) for d in range(2, 40)
            if all(d % (k * k) for k in range(2, 7))]
    import itertools
    import random
    rng = random.Random(7)
    pairs = 0
    while pairs < 100:
        small = rng.sample(primes, 2)
        big = small + rng.sample([p for p in primes if p not in small], 2)
        A, B = algebra_q(small), algebra_q(big)
        assert excluded_fields_subset(A, B, pool)
        for f in pool:
            if embeds_q(f, B):
                assert embeds_q(f, A)
        pairs += 1
    with pytest.raises(InputError):
        excluded_fields_subset(algebra_q([2, 3]), algebra_q([5, 7]), pool)


def test_excluded_fields_monotone_qi():
    ideals = gaussian_primes_up_to_norm(30)
    pool = []
    from sysarith.gaussian import quad_exts_with_disc_below
    pool = quad_exts_with_disc_below(100)
    import random
    rng = random.Random(11)
    for _ in range(40):
        small = rng.sample(ideals, 2)
        big = small + rng.sample([P for P in ideals if P not in small], 2)
        A, B = algebra_qi(small), algebra_qi(big)
        assert excluded_fields_subset(A, B, pool)


@given(st.sets(st.sampled_from(sieve_primes(100)), min_size=0, max_size=5))
def test_admissibility_matches_cardinality(ram):
    assert is_admissible(algebra_q(ram)) == (len(ram) >= 2 and len(ram) % 2 == 0)
