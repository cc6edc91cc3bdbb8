"""Gaussian integers: ideals, residue symbols, quadratic extensions of Q(i)."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sysarith import gaussian
from sysarith.errors import DegenerateExtensionError, InputError
from sysarith.gaussian import (
    _ODD_SQUARES_MOD16,
    GaussianInt,
    _defect_table,
    canonical_associate,
    canonicalize_delta,
    factor_gaussian,
    gaussian_primes_up_to_norm,
    ideal_above,
    quad_ext,
    quad_exts_with_disc_below,
    quad_residue_symbol,
    relative_discriminant,
    splitting_in_ext,
    splitting_in_qi,
)
from sysarith.real_quadratic import INERT, RAMIFIED, SPLIT, is_prime

from oracles import (
    biquadratic_rel_disc_norm,
    brute_even_split_qi,
    brute_squarefree_part,
    brute_symbol_qi,
    ext_columns,
    recursive_quad_exts,
    sieve_primes,
)

nonzero_gauss = st.builds(
    GaussianInt,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
).filter(lambda z: z.norm != 0)

# norms up to 2 * 10^10, whose trial division runs to about 1.4 * 10^5
wide_gauss = st.builds(
    GaussianInt,
    st.integers(min_value=-10 ** 5, max_value=10 ** 5),
    st.integers(min_value=-10 ** 5, max_value=10 ** 5),
).filter(lambda z: z.norm != 0)


def brute_splitting(delta: GaussianInt, P) -> str:
    """Adapter onto the residue-field square enumeration oracle."""
    p = P.norm if P.kind == SPLIT else P.gen.a
    return brute_symbol_qi(delta.a, delta.b, P.gen.a, P.gen.b, p)


def test_gaussian_int_basics():
    z = GaussianInt(2, -3)
    assert z.norm == 13
    assert z.conj() == GaussianInt(2, 3)
    assert z * GaussianInt(1, 1) == GaussianInt(5, -1)
    assert str(GaussianInt(1, 4)) == "1+4i"
    assert str(GaussianInt(-1, 4)) == "-1+4i"
    assert str(GaussianInt(3, 0)) == "3"
    assert str(GaussianInt(0, 2)) == "2i"


@given(nonzero_gauss)
def test_canonical_associate_properties(z):
    w = canonical_associate(z)
    assert w.a > 0 and w.b >= 0
    assert w.norm == z.norm
    assert w in (z * u for u in
                 (GaussianInt(1, 0), GaussianInt(0, 1),
                  GaussianInt(-1, 0), GaussianInt(0, -1)))


def test_splitting_in_qi():
    assert splitting_in_qi(2) == RAMIFIED
    assert splitting_in_qi(5) == SPLIT
    assert splitting_in_qi(13) == SPLIT
    assert splitting_in_qi(3) == INERT
    assert splitting_in_qi(7) == INERT
    with pytest.raises(InputError):
        splitting_in_qi(9)


def test_ideal_above():
    P = ideal_above(5)
    assert (P.gen, P.norm, P.kind) == (GaussianInt(2, 1), 5, SPLIT)
    Pc = ideal_above(5, conjugate=True)
    assert Pc.gen == GaussianInt(1, 2)
    assert ideal_above(3).gen == GaussianInt(3, 0)
    assert ideal_above(3).norm == 9
    assert ideal_above(2).gen == GaussianInt(1, 1)
    for p in sieve_primes(200):
        P = ideal_above(p)
        if P.kind == SPLIT:
            assert P.gen.norm == p and P.gen.a > P.gen.b > 0


def test_gaussian_primes_up_to_norm():
    small = gaussian_primes_up_to_norm(10)
    assert [(P.gen, P.norm) for P in small] == [
        (GaussianInt(1, 1), 2),
        (GaussianInt(2, 1), 5),
        (GaussianInt(1, 2), 5),
        (GaussianInt(3, 0), 9),
    ]
    bound = 1000
    ideals = gaussian_primes_up_to_norm(bound)
    primes = sieve_primes(bound)
    expect = (1 + 2 * sum(1 for p in primes if p % 4 == 1)
              + sum(1 for p in primes if p % 4 == 3 and p * p <= bound))
    assert len(ideals) == expect
    norms = [P.norm for P in ideals]
    assert norms == sorted(norms) and max(norms) <= bound
    assert len({P.gen for P in ideals}) == len(ideals)


def test_residue_symbol_against_square_enumeration():
    ideals = [P for P in gaussian_primes_up_to_norm(100) if P.norm % 2 == 1]
    deltas = [GaussianInt(a, b) for a in range(-6, 7) for b in range(-6, 7)
              if (a, b) != (0, 0)]
    for P in ideals:
        for d in deltas:
            s = quad_residue_symbol(d, P)
            want = {1: SPLIT, -1: INERT, 0: RAMIFIED}[s]
            assert brute_splitting(d, P) == want, (str(d), str(P.gen))


def test_residue_symbol_rejects_even_prime():
    with pytest.raises(InputError):
        quad_residue_symbol(GaussianInt(3, 0), ideal_above(2))


@given(nonzero_gauss, nonzero_gauss)
def test_residue_symbol_multiplicative(z, w):
    P = ideal_above(13)
    assert (quad_residue_symbol(z * w, P)
            == quad_residue_symbol(z, P) * quad_residue_symbol(w, P))


@given(st.one_of(nonzero_gauss, wide_gauss))
@settings(max_examples=300)
@example(GaussianInt(0, -1))                      # a unit
@example(GaussianInt(2, 1))                       # norm 5, prime, left after the scan
@example(GaussianInt(-64, 0))                     # (1+i)^12 times a unit
@example(GaussianInt(3 ** 3 * 7 ** 2 * 11, 0))    # inert primes only
@example(GaussianInt(999_983, 0))                 # inert, norm near 10^12
@example(GaussianInt(1_000_033, 0))               # 1 mod 4: both primes above it
@example(GaussianInt(3, 2) * GaussianInt(3, 2) * GaussianInt(2, 3) * GaussianInt(5, 4))
@example(GaussianInt(999_999, 1_000))             # norm 999,999,000,001
def test_factor_gaussian_roundtrip(z):
    unit, factors = factor_gaussian(z)
    assert unit.norm == 1
    prod = unit
    for g, e in factors:
        assert g == canonical_associate(g)
        assert is_prime(g.norm) or (g.b == 0 and is_prime(g.a))
        for _ in range(e):
            prod = prod * g
    assert prod == z
    norms = [g.norm for g, _ in factors]
    assert norms == sorted(norms)


def test_factor_gaussian_rejects_zero():
    with pytest.raises(InputError):
        factor_gaussian(GaussianInt(0, 0))


@given(nonzero_gauss, nonzero_gauss)
def test_square_class_invariant_under_square_multiplication(z, w):
    assert canonicalize_delta(z * w * w) == canonicalize_delta(z)


def test_degenerate_extensions():
    for sq in (1, -1, 4, 9, GaussianInt(0, 2), GaussianInt(-3, 4)):
        with pytest.raises(DegenerateExtensionError):
            quad_ext(sq)


def test_relative_discriminant_against_biquadratic_oracle():
    # Q(i)(sqrt(m)) for rational squarefree m is a biquadratic field over Q
    # whose discriminant is the product over its three quadratic subfields.
    for m in range(-50, 51):
        if m in (-1, 0, 1) or brute_squarefree_part(m) != m:
            continue
        _, _, norm = relative_discriminant(m)
        assert norm == biquadratic_rel_disc_norm(m), m


def test_relative_discriminant_norm17_conjugate_pair():
    odd, two_exp, norm = relative_discriminant(GaussianInt(1, 4))
    assert (odd, two_exp, norm) == (GaussianInt(1, 4), 0, 17)
    assert quad_ext(GaussianInt(1, 4)).two_splitting == INERT
    odd, two_exp, norm = relative_discriminant(GaussianInt(-1, 4))
    assert (odd, two_exp, norm) == (GaussianInt(4, 1), 0, 17)
    assert quad_ext(GaussianInt(-1, 4)).two_splitting == INERT


def test_norm17_conjugates_split_at_opposite_norm5_primes():
    P, Pc = ideal_above(5), ideal_above(5, conjugate=True)
    e1, e2 = quad_ext(GaussianInt(1, 4)), quad_ext(GaussianInt(-1, 4))
    assert splitting_in_ext(P, e1) == INERT
    assert splitting_in_ext(Pc, e1) == SPLIT
    assert splitting_in_ext(P, e2) == SPLIT
    assert splitting_in_ext(Pc, e2) == INERT


def test_splitting_in_ext_matches_symbol_and_ramification():
    exts = quad_exts_with_disc_below(120)
    ideals = gaussian_primes_up_to_norm(60)
    for e in exts:
        for P in ideals:
            kind = splitting_in_ext(P, e)
            if P.norm % 2 == 0:
                assert kind == (RAMIFIED if e.rel_disc_two_exp else e.two_splitting)
            elif P.gen in e.gens:
                assert kind == RAMIFIED
            else:
                assert kind == {1: SPLIT, -1: INERT}[quad_residue_symbol(e.delta, P)]
                assert kind == brute_splitting(e.delta, P)


def test_even_prime_splitting_against_two_adic_square_oracle():
    # (1+i) splits iff delta is a 2-adic square; the oracle enumerates odd
    # square residues mod (1+i)^5 instead of using the defect classification
    for e in quad_exts_with_disc_below(500):
        if e.delta.norm % 2 == 0:
            continue  # delta divisible by (1+i): always ramified
        brute_split = brute_even_split_qi(e.delta.a, e.delta.b)
        if e.rel_disc_two_exp == 0:
            assert brute_split == (e.two_splitting == SPLIT), str(e.delta)
        else:
            assert not brute_split, str(e.delta)


def test_quad_ext_reconstructs_from_delta():
    # the enumerator builds delta and its odd part incrementally; quad_ext
    # factors delta from scratch
    exts = quad_exts_with_disc_below(math.exp(10))
    assert len(exts) == 5745
    for e in exts:
        assert quad_ext(e.delta) == e


def test_defect_table_matches_the_odd_squares_loop():
    # the table reads v(u - s); the loop takes the largest v(u*s - 1) over
    # the odd squares s mod 16, capped at 8
    def vpi(a, b):
        n = (a % 16) ** 2 + (b % 16) ** 2
        return 8 if a % 16 == b % 16 == 0 else (n & -n).bit_length() - 1

    odd = [(a, b) for a in range(16) for b in range(16) if (a + b) % 2]
    assert len(odd) == 128
    table = _defect_table()
    for a, b in odd:
        loop = max(vpi(a * sa - b * sb - 1, a * sb + b * sa) for sa, sb in _ODD_SQUARES_MOD16)
        assert table[a][b] == loop, (a, b)


def test_extension_enumeration_counts():
    assert quad_exts_with_disc_below(8) == []
    only = quad_exts_with_disc_below(9)
    assert len(only) == 1 and only[0].delta == GaussianInt(3, 0)
    assert only[0].rel_disc_norm == 9
    assert len(quad_exts_with_disc_below(50)) == 12
    assert len(quad_exts_with_disc_below(math.exp(6))) == 103
    with pytest.raises(InputError):
        quad_exts_with_disc_below(-1)


def test_extension_enumeration_sorted_and_complete():
    bound = 200
    exts = quad_exts_with_disc_below(bound)
    norms = [e.rel_disc_norm for e in exts]
    assert norms == sorted(norms) and all(n <= bound for n in norms)
    assert len({(e.unit_exp, e.gens) for e in exts}) == len(exts)
    # brute completeness: every square class assembled from small prime
    # generators whose discriminant fits must appear in the enumeration
    from itertools import combinations
    gens = [P.gen for P in gaussian_primes_up_to_norm(bound)]
    seen = {(e.unit_exp, e.gens) for e in exts}
    for r in range(0, 4):
        for combo in combinations(gens, r):
            for unit_exp in (0, 1):
                if r == 0 and unit_exp == 0:
                    continue
                e = quad_ext(_mul_all(unit_exp, combo))
                if e.rel_disc_norm <= bound:
                    assert (e.unit_exp, e.gens) in seen, (unit_exp, combo)


def _mul_all(unit_exp, gens):
    z = GaussianInt(0, 1) if unit_exp else GaussianInt(1, 0)
    for g in gens:
        z = z * g
    return z


def test_conjugation_class_counts_at_large_bound():
    exts = quad_exts_with_disc_below(math.exp(9.4))
    key = lambda e: (e.unit_exp, e.gens)
    selfconj = sum(1 for e in exts
                   if key(quad_ext(e.delta.conj())) == key(e))
    assert len(exts) == 3152
    assert selfconj == 56
    assert (len(exts) + selfconj) // 2 == 1604


# the acceptance ladder's bounds e^6 ... e^10 in steps of 0.2, the small
# cases around the least norm 9, and e^10's floor given as a float
MEMO_BOUNDS = [0, 8, 9, 9.5, 50, *(math.exp(6 + k / 5) for k in range(21)), 22026.0]


EMPTY_MEMO = (0, [], ext_columns([]), [])


@pytest.fixture(scope="module")
def fresh_exts():
    # the level walk itself, once per limit, bypassing the process memo, and
    # equal to the reference's recursive descent at every limit, with the
    # columns read off its extensions
    walks = {}
    for limit in sorted({math.floor(b) for b in MEMO_BOUNDS}):
        walks[limit] = gaussian._quad_exts_up_to(limit, gaussian._odd_generators(0, limit))
        assert walks[limit][0] == recursive_quad_exts(limit), limit
        assert np.array_equal(walks[limit][1], ext_columns(walks[limit][0])), limit
    return walks


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_extension_memo_matches_a_fresh_enumeration(order, fresh_exts, monkeypatch):
    bounds = sorted(MEMO_BOUNDS, reverse=order == "descending")
    if order == "shuffled":
        random.Random(0).shuffle(bounds)
    monkeypatch.setattr(gaussian, "_exts_memo", EMPTY_MEMO)
    for bound in bounds:
        request = math.floor(bound)
        before = gaussian._exts_memo[0]
        exts, cols = gaussian._exts_and_columns(bound)
        assert exts == fresh_exts[request][0], bound
        assert np.array_equal(cols, fresh_exts[request][1]), bound
        held = gaussian._exts_memo[0]
        assert max(before, request) <= held <= max(2 * before, request), (bound, before, held)


def test_walk_columns_match_the_extensions_as_the_memo_grows(monkeypatch):
    # e^6, e^8 and e^10 grow the memo three times, so its columns are three
    # appended pieces of the walk; each prefix is the oracle's columns
    monkeypatch.setattr(gaussian, "_exts_memo", EMPTY_MEMO)
    helds = []
    for bound in (math.exp(6), math.exp(8), math.exp(10)):
        exts, cols = gaussian._exts_and_columns(bound)
        assert cols.dtype == np.int64 and cols.shape == (5, len(exts))
        assert np.array_equal(cols, ext_columns(exts)), bound
        helds.append(gaussian._exts_memo[0])
    assert helds == [403, 2980, 22026] and len(exts) == 5745
    # the generator column is the product of the odd generators, whose
    # canonical associate is the odd part of the relative discriminant
    for e, (x, y) in zip(exts, cols[3:].T.tolist()):
        product = GaussianInt(1, 0)
        for g in e.gens:
            if g.norm % 2:
                product = product * g
        assert GaussianInt(x, y) == product, e
        assert canonical_associate(product) == e.rel_disc_odd, e
    # extensions built one by one from their deltas give the same columns
    rebuilt = [quad_ext(e.delta) for e in exts[::7]]
    assert np.array_equal(ext_columns(rebuilt), cols[:, ::7])
    assert set(cols[2].tolist()) == {0, 1} and set(cols[2, ::7].tolist()) == {0, 1}


def test_extension_memo_hands_out_new_lists(monkeypatch):
    monkeypatch.setattr(gaussian, "_exts_memo", EMPTY_MEMO)
    whole = quad_exts_with_disc_below(500)  # exactly the held list's length
    want = list(whole)
    whole.clear()
    assert quad_exts_with_disc_below(500) == want
    prefix = quad_exts_with_disc_below(50)
    prefix.append(want[-1])
    prefix.reverse()
    assert quad_exts_with_disc_below(50) == want[:12]
    assert quad_exts_with_disc_below(500) == want


def test_extension_memo_grows_by_contiguous_descents(monkeypatch):
    monkeypatch.setattr(gaussian, "_exts_memo", EMPTY_MEMO)
    descent = gaussian._quad_exts_up_to
    calls = []

    def spy(limit, odd, above=0):
        exts, cols = descent(limit, odd, above)
        calls.append((above, limit, exts))
        return exts, cols

    monkeypatch.setattr(gaussian, "_quad_exts_up_to", spy)
    for bound in sorted(MEMO_BOUNDS):
        quad_exts_with_disc_below(bound)
    # each descent starts where the last one ended, so no extension is built
    # twice and the appended pieces are exactly the held list
    assert [above for above, _, _ in calls] == [0] + [limit for _, limit, _ in calls[:-1]]
    assert all(above < limit for above, limit, _ in calls)
    held, exts, _, _ = gaussian._exts_memo
    assert held == calls[-1][1]
    assert [e for _, _, piece in calls for e in piece] == exts


def test_descents_build_each_generator_once(monkeypatch):
    # the descents read their odd generators from a kept list that grows by
    # the ideals past its limit, so an ascending ladder builds each ideal once
    monkeypatch.setattr(gaussian, "_exts_memo", EMPTY_MEMO)
    build = gaussian._gaussian_primes
    calls = []

    def spy(above, bound):
        ideals = build(above, bound)
        calls.append((above, bound, ideals))
        return ideals

    monkeypatch.setattr(gaussian, "_gaussian_primes", spy)
    for bound in sorted(MEMO_BOUNDS):
        quad_exts_with_disc_below(bound)
    assert [above for above, _, _ in calls] == [0] + [bound for _, bound, _ in calls[:-1]]
    built = [P for _, _, piece in calls for P in piece]
    assert built == gaussian_primes_up_to_norm(calls[-1][1])
    assert gaussian._exts_memo[3] == [P.gen for P in built if P.norm % 2]


@pytest.mark.parametrize("above,bound", [(0, 1), (1, 2), (2, 9), (8, 9), (9, 50), (24, 25),
                                         (48, 49), (49, 121), (100, 23840)])
def test_gaussian_primes_above_a_norm(above, bound):
    assert gaussian._gaussian_primes(above, bound) == [
        P for P in gaussian_primes_up_to_norm(bound) if P.norm > above]


@pytest.mark.parametrize("above,limit", [(0, 50), (9, 50), (31, 500), (403, 3000),
                                         (2980, 5960)])
def test_descent_builds_only_the_norms_above(above, limit):
    odd = gaussian._odd_generators(0, limit)
    whole, cols = gaussian._quad_exts_up_to(limit, odd)
    assert whole == recursive_quad_exts(limit)
    piece, piece_cols = gaussian._quad_exts_up_to(limit, odd, above)
    assert piece == recursive_quad_exts(limit, above) == [
        e for e in whole if e.rel_disc_norm > above]
    assert np.array_equal(piece_cols, cols[:, len(whole) - len(piece):])


def test_extension_list_at_e10_is_pinned():
    # every field of every extension, in order; the digest pins the list as
    # a whole, and test_quad_ext_reconstructs_from_delta checks each element
    exts = quad_exts_with_disc_below(math.exp(10))
    rows = [(e.delta.a, e.delta.b, e.unit_exp, tuple((g.a, g.b) for g in e.gens),
             e.rel_disc_odd.a, e.rel_disc_odd.b, e.rel_disc_two_exp, e.rel_disc_norm,
             e.two_splitting) for e in exts]
    assert len(rows) == 5745
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "94da05d25944235cc449c06b2a91a02d41b5e615d3b3c00a24b24fc573957893")


def test_norm_fixes_the_keys_the_walk_does_not_sort_on():
    # the level walk sorts by (norm, unit, odd generator indices) alone: at
    # one relative discriminant norm every extension has the same delta
    # norm, (1+i) factor and number of generators, so keys that compared
    # them would never decide
    fixed = {}
    exts = quad_exts_with_disc_below(10**5)
    for e in exts:
        key = (e.delta.norm, GaussianInt(1, 1) in e.gens, len(e.gens))
        assert fixed.setdefault(e.rel_disc_norm, key) == key, e
    assert len(fixed) < len(exts)
