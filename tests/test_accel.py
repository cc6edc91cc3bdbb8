"""The numeric kernels against the independent residue oracle."""

import random
import tracemalloc

import numpy as np
import pytest

from sysarith import _accel
from sysarith._accel import (
    build_split_masks,
    character_tables,
    legendre_wheels,
    prime_segments,
    primes_up_to,
    smallest_factor_table,
    wheel_words,
)
from sysarith.quaternion import TORSION_Q
from sysarith.real_quadratic import kronecker

from oracles import brute_is_squarefree, brute_splitting_q, sieve_primes, table_words


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
    discs = [disc for _, disc in fields]
    tables = character_tables(discs)
    # the list twice over, so bits run into the second word
    words = build_split_masks(primes, discs * 2)
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
    for disc, chi in zip(discs, character_tables(discs), strict=True):
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
    # word 0 of the wheels is the table oracle's over the character tables:
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
            want = table_words(primes, tables)[:, :1].sum(axis=1, dtype=np.uint64)
            assert wheel_words(primes, plan).tolist() == want.tolist(), discs
    # disc mod 8, or 8 + u mod 4 for disc = 8u: every kind is drawn
    kinds = {d if d < 0 else d % 8 or 8 + d // 8 % 4 for d in random_discs(rng, 200)}
    assert kinds == {1, 5, 4, 9, 11, -3, -4, -8}


# fundamental discriminants of five and six prime parts, with every 2-part:
# 4 * 3 * 5 * 7 * 11 (-4), 8 * 3 * 5 * 7 * 11 (-8), 8 * 3 * 5 * 7 * 13 (8),
# 3 * 5 * 7 * 11 * 19 (odd) and 4 * 3 * 5 * 7 * 11 * 13
MANY_PARTS = [4 * 1155, 8 * 1155, 8 * 1365, 21945, 4 * 15015]


@pytest.mark.parametrize("n_discs", [1, 63, 64, 65, 130])
def test_split_words_match_the_table_kernel(n_discs):
    # over the primes from 2, which meet every prime dividing a disc, and
    # over a segment past them; field counts on both sides of a word
    rng = random.Random(n_discs)
    low = primes_up_to(70_000)
    high = next(prime_segments(10 ** 7, 10 ** 7 + 10 ** 4))
    for _ in range(3):
        discs = random_discs(rng, n_discs - 1) + [rng.choice(MANY_PARTS)]
        rng.shuffle(discs)
        tables = character_tables(discs)
        for primes in (low, high):
            words = build_split_masks(primes, discs)
            assert words.dtype == np.uint64 and words.shape == (len(primes), (n_discs + 63) // 64)
            assert np.array_equal(words, table_words(primes, tables)), discs
            if n_discs % 64:  # the bits past the last field
                assert not (words[:, -1] >> np.uint64(n_discs % 64)).any()


def test_split_masks_hold_no_fields_by_primes_temporary():
    # 2^18 primes x 64 fields: one byte per (field, prime) is 16 MB, and the
    # unpacked bits with their transposed copy 32 MB; the kernel unpacks
    # _MASK_BLOCK primes at a time, and peaked at 10.4 MB (43.7 MB
    # unblocked), symbols memoized
    primes = primes_up_to(4_000_000)[:1 << 18]
    assert len(primes) == 1 << 18 > 4 * _accel._MASK_BLOCK
    discs = random_discs(random.Random(64), 64)
    build_split_masks(primes[:100], discs)  # fills the symbol memo
    tracemalloc.start()
    try:
        words = build_split_masks(primes, discs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words.shape == (len(primes), 1)
    assert peak < 64 * len(primes), peak
    assert np.array_equal(words[::97], table_words(primes[::97], character_tables(discs)))


def trial_parts(disc):
    """The prime discriminants whose product is disc, by trial division: -4
    for disc = 4u with u odd, 8 or -8 for disc = 8u with u = 1 or 3 mod 4,
    then each odd prime dividing disc."""
    parts = []
    if disc % 8 == 4:
        parts.append(-4)
    elif disc % 8 == 0:
        parts.append(8 if disc // 8 % 4 == 1 else -8)
    m = abs(disc)
    while m % 2 == 0:
        m //= 2
    for k in range(3, m + 1, 2):
        if m % k == 0:
            parts.append(k)
            m //= k
    return parts


def test_split_words_read_each_prime_discriminant():
    # the symbol of 4099 is past the memo, built afresh
    discs = MANY_PARTS + [5, 12, 8, 24, 40, 56, 3 * 4099, 4 * 4099, -3, -4, -8]
    primes = primes_up_to(70_000)
    words = build_split_masks(primes, discs)
    assert np.array_equal(words, table_words(primes, character_tables(discs)))
    qs, part = _accel._part_matrix(discs)
    assert qs.tolist() == sorted(set(qs.tolist())) and part.shape[0] == len(discs)
    parts = qs[part].tolist()
    for disc, row in zip(discs, parts, strict=True):
        assert sorted(q for q in row if q) == sorted(trial_parts(disc)), disc
    assert [sum(1 for q in row if q) for row in parts[:5]] == [5, 5, 5, 5, 6]
    # each 2-part: -4 for disc = 4u, and for disc = 8u 8 if u = 1 mod 4, else -8
    assert [row[0] for row in parts[:6]] == [-4, -8, 8, 0, -4, 0]
    assert [row[0] for row in parts[7:11]] == [8, -8, 8, -8]
    for f, (disc, row) in enumerate(zip(discs, parts)):
        bit = (words[:, f // 64] >> np.uint64(f % 64)) & np.uint64(1)
        # the primes dividing the disc, 2 when it is even, are ramified
        ramified = [p for p in primes.tolist() if disc % p == 0]
        assert ramified == sorted(q if q % 2 else 2 for q in row if q), disc
        assert not bit[np.isin(primes, ramified)].any(), disc
        # 2 splits in the field of an odd disc iff disc = 1 mod 8
        assert bit[0] == (disc % 8 == 1), disc


def test_split_words_agree_with_the_residue_oracle():
    rng = random.Random(7)
    fields = rng.sample(fundamental_fields(40), 70)
    primes = np.array(sorted({*rng.sample(sieve_primes(2000), 40), 2, 3, 5, 7}), dtype=np.int64)
    words = build_split_masks(primes, [disc for _, disc in fields])
    for f, (d, _) in enumerate(fields):
        bit = (words[:, f // 64] >> np.uint64(f % 64)) & np.uint64(1)
        assert bit.astype(bool).tolist() == [brute_splitting_q(d, p) == "split"
                                            for p in primes.tolist()], d


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
    three, none = np.array([2, 3, 5], dtype=np.int64), np.empty(0, dtype=np.int64)
    assert wheel_words(three, legendre_wheels([])).tolist() == [0] * 3
    assert wheel_words(none, legendre_wheels([5, 8])).shape == (0,)
    assert character_tables([]) == []
    # the shapes of the table oracle's: no field gives no word
    for primes, discs in [(three, []), (none, [5, 8])]:
        words = build_split_masks(primes, discs)
        want = table_words(primes, character_tables(discs))
        assert words.dtype == np.uint64 and words.shape == want.shape, (primes, discs)


def test_smallest_factor_table_matches_trial_division():
    # trial division by every m from 2 up gives the least prime factor
    brute = [1, 1] + [next(m for m in range(2, k + 1) if k % m == 0)
                      for k in range(2, 5001)]
    for n in (0, 1, 2, 3, 4, 8, 9, 10, 48, 49, 50, 4999, 5000):
        spf = smallest_factor_table(n)
        assert spf.dtype == np.int64
        assert spf.tolist() == brute[:n + 1], n
