"""The numeric kernels against the independent residue oracle."""

import random

import numpy as np
import pytest

from sysarith import _accel
from sysarith._accel import (
    build_split_masks,
    character_table,
    character_tables,
    legendre_wheels,
    prime_segments,
    primes_up_to,
    smallest_factor_table,
    wheel_words,
)
from sysarith.quaternion import TORSION_Q
from sysarith.real_quadratic import kronecker

from oracles import brute_is_squarefree, brute_splitting_q, sieve_primes


def fundamental_fields(per_class):
    """(d, disc) for the first real fields of each discriminant class:
    disc odd, disc = 4 mod 8 and disc = 0 mod 8."""
    classes = {1: [], 4: [], 0: []}
    d = 2
    while min(len(c) for c in classes.values()) < per_class:
        if brute_is_squarefree(d):
            disc = d if d % 4 == 1 else 4 * d
            bucket = classes[1 if disc % 2 else disc % 8]
            if len(bucket) < per_class:
                bucket.append((d, disc))
        d += 1
    return [f for c in classes.values() for f in c]


def test_split_masks_match_residue_oracle():
    fields = fundamental_fields(13)
    assert len(fields) == 39
    primes = np.array(sieve_primes(2999), dtype=np.int64)
    tables = character_tables([disc for _, disc in fields])
    # the list twice over, so bits run into the second word
    words = build_split_masks(primes, tables * 2)
    assert words.shape == (len(primes), 2) and words.dtype == np.uint64
    symbol = {"split": 1, "inert": -1, "ramified": 0}
    for i, ((d, disc), chi) in enumerate(zip(fields, tables)):
        brute = [brute_splitting_q(d, p) for p in primes.tolist()]
        assert chi[primes % disc].tolist() == [symbol[b] for b in brute], d
        for f in (i, i + len(fields)):
            got = (words[:, f // 64] >> np.uint64(f % 64)) & np.uint64(1)
            assert got.astype(bool).tolist() == [b == "split" for b in brute], d
    assert not (words[:, 1] >> np.uint64(2 * len(fields) - 64)).any()


def test_character_table_is_the_kronecker_symbol():
    # every residue of every real fundamental discriminant below 3000, which
    # covers the three 2-adic classes and the fields of cover_algebra_2d(3.0)
    discs = [d if d % 4 == 1 else 4 * d for d in range(2, 3000)
             if brute_is_squarefree(d)]
    discs = [disc for disc in discs if disc < 3000] + [-3, -4, -8]
    assert {disc % 8 for disc in discs} == {0, 1, 4, 5}
    spf = smallest_factor_table(max(discs))
    for disc in discs:
        chi = character_table(disc, spf)
        assert chi.dtype == np.int8
        assert chi.tolist() == [kronecker(disc, r) for r in range(abs(disc))], disc


def test_memoized_symbols_stay_read_only_and_intact():
    # the fields of 3 * 5 * 7 * 11 and its divisors share the symbols of 3, 5,
    # 7 and 11, each multiplied into every table; none may be written to
    discs = [5, 12, 21, 28, 33, 60, 105, 165, 385, 4 * 1155, 8 * 1155, 3 * 4099]
    tables = character_tables(discs)
    for disc, chi in zip(discs, tables):
        assert chi.tolist() == [kronecker(disc, r) for r in range(disc)], disc
    for q in (3, 5, 7, 11):
        sym = _accel._symbols[q]
        assert not sym.flags.writeable
        assert np.array_equal(sym, _accel._legendre_table(q))
        with pytest.raises(ValueError):
            sym[1] = 0
    # a prime past the memo's bound is built afresh each time
    assert 4099 > _accel._SYMBOL_MEMO_BELOW and 4099 not in _accel._symbols
    assert all(not _accel._symbols[q].flags.writeable for q in (-4, 8, -8))


def test_torsion_conditions_are_the_characters_of_minus_4_and_minus_3():
    # quaternion.TORSION_Q's p = 1 mod 4 and p = 1 mod 3 are chi_-4(n) = 1
    # and chi_-3(n) = 1 at every n, prime or not, as the pair wheels read them
    n = np.arange(10_000)
    for chi, condition in zip(character_tables([-4, -3]), TORSION_Q, strict=True):
        assert (chi[n % len(chi)] == 1).tolist() == [condition(k) for k in n.tolist()]


def random_discs(rng, n):
    """n fundamental discriminants of every 2-adic kind: odd u = 1 mod 4,
    4u with u = 3 mod 4, 8u with u = 1 and with u = 3 mod 4, and the
    negative -3, -4 and -8."""
    odd = [u for u in range(3, 2000, 2) if brute_is_squarefree(u)]
    kinds = [[u for u in odd if u % 4 == 1], [4 * u for u in odd if u % 4 == 3],
             [8 * u for u in odd if u % 4 == 1], [8 * u for u in odd if u % 4 == 3],
             [-3, -4, -8]]
    return [rng.choice(rng.choice(kinds)) for _ in range(n)]


@pytest.mark.parametrize("n_discs", [0, 1, 63, 64])
def test_wheel_words_match_the_table_kernel(n_discs):
    # word 0 of the wheels is build_split_masks's over the character tables:
    # over the primes from 2, which meet every prime dividing a disc (the
    # ramified fix-up) and cross a _MASK_BLOCK boundary, and over a segment
    # past every such prime
    rng = random.Random(n_discs)
    low = primes_up_to(400_000)
    high = next(prime_segments(10 ** 7, 10 ** 7 + 10 ** 5))
    assert len(low) > _accel._MASK_BLOCK
    for _ in range(5):
        discs = random_discs(rng, n_discs)
        plan = legendre_wheels(discs)
        assert np.isin(plan[1], low).all() and plan[1].max(initial=0) < high[0]
        tables = character_tables(discs)
        for primes in (low, high):
            # word 0; with no table there is no word, and zeros stand for it
            want = build_split_masks(primes, tables)[:, :1].sum(axis=1, dtype=np.uint64)
            assert wheel_words(primes, plan).tolist() == want.tolist(), discs
    # disc mod 8, or 8 + u mod 4 for disc = 8u: every kind is drawn
    kinds = {d if d < 0 else d % 8 or 8 + d // 8 % 4 for d in random_discs(rng, 200)}
    assert kinds == {1, 5, 4, 9, 11, -3, -4, -8}


@pytest.mark.parametrize("segment", [1, 7, 997, _accel._SEGMENT])
def test_prime_segments_match_the_oracle_sieve(segment, monkeypatch):
    # 997 is prime, so no segment boundary falls on a multiple of a small
    # prime; the pairs include lo <= 2, an odd and an even lo, and hi <= lo
    monkeypatch.setattr(_accel, "_SEGMENT", segment)
    oracle = sieve_primes(1 << 14)
    for lo, hi in [(0, 2), (0, 3), (1, 12), (2, 3), (2, 4), (3, 3), (10, 5),
                   (24, 30), (25, 30), (97, 98), (1000, 5000), (0, 1 << 14),
                   (1 << 13, (1 << 14) + 1)]:
        segments = list(prime_segments(lo, hi))
        assert all(s.dtype == np.int64 and len(s) for s in segments), (lo, hi)
        assert all(s[-1] - s[0] < 2 * segment for s in segments), (lo, hi)
        got = np.concatenate([np.empty(0, dtype=np.int64), *segments]).tolist()
        assert got == [p for p in oracle if lo <= p < hi], (lo, hi)
    # the ranges [2^k, 2^(k+1)) of the surface sweep: ascending and disjoint
    got = [s.tolist() for k in range(14) for s in prime_segments(1 << k, 1 << (k + 1))]
    assert sum(got, []) == oracle
    assert all(a[-1] < b[0] for a, b in zip(got, got[1:]))


def test_primes_up_to_matches_the_oracle_sieve():
    for n in (0, 1, 2, 3, 4, 5, 1024, 23840):
        got = primes_up_to(n)
        assert got.dtype == np.int64
        assert got.tolist() == sieve_primes(n), n


def test_prime_segments_run_no_nested_sieve(monkeypatch):
    # the base primes up to sqrt(hi - 1) come from odd numbers that strike
    # themselves, not from another call of the sieve
    calls = []
    sieve = _accel.prime_segments

    def spy(lo, hi):
        calls.append((lo, hi))
        return sieve(lo, hi)

    monkeypatch.setattr(_accel, "prime_segments", spy)
    for n in (1024, 23840, 10 ** 6):
        calls.clear()
        assert primes_up_to(n).tolist() == sieve_primes(n), n
        assert calls == [(2, n + 1)], n


def test_split_masks_empty_inputs():
    assert build_split_masks(np.array([2, 3, 5], dtype=np.int64), []).shape == (3, 0)
    assert wheel_words(np.array([2, 3, 5], dtype=np.int64), legendre_wheels([])).tolist() == [0] * 3
    assert wheel_words(np.empty(0, dtype=np.int64), legendre_wheels([5, 8])).shape == (0,)
    assert build_split_masks(np.empty(0, dtype=np.int64),
                             character_tables([5, 8])).shape == (0, 1)
    assert character_tables([]) == []


def test_smallest_factor_table_matches_trial_division():
    # trial division by every m from 2 up gives the least prime factor
    brute = [1, 1] + [next(m for m in range(2, k + 1) if k % m == 0)
                      for k in range(2, 5001)]
    for n in (0, 1, 2, 3, 4, 8, 9, 10, 48, 49, 50, 4999, 5000):
        spf = smallest_factor_table(n)
        assert spf.dtype == np.int64
        assert spf.tolist() == brute[:n + 1], n
