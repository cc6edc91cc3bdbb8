"""The range sweep and the certified minimal-algebra searches."""

import bisect
import dataclasses
import functools
import inspect
import itertools
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from sysarith import _accel, gaussian, search
from sysarith.errors import (
    InadmissibleAlgebraError,
    InputError,
    NoCandidateError,
    SysarithError,
)
from sysarith.gaussian import (
    SPLIT,
    GaussianInt,
    gaussian_primes_up_to_norm,
    ideal_above,
    quad_ext,
    quad_exts_with_disc_below,
    quad_residue_symbol,
    splitting_in_ext,
)
from sysarith.quaternion import TORSION_QI, QuaternionAlgebraQi, algebra_q, algebra_qi
from sysarith.real_quadratic import fields_with_regulator_below, is_prime
from sysarith.search import (
    _IdealPool,
    _MaskMatrix,
    _minimal_sets,
    _sets_below,
    _split_rows_qi,
    _sweep_sets,
    minimal_algebra_2d,
    valid_algebra_3d,
    verify_exclusion_3d,
)

from oracles import (
    brute_is_squarefree,
    brute_splitting_q,
    brute_splits_qi,
    ext_columns,
    int_words,
    max_ram_cardinality,
    naive_minimal_sets,
    naive_prime_sets,
    naive_valid_sets_qi,
    sieve_primes,
    word_ints,
)

# (bound, factor, minimizer sets, tested_below_optimum) regression pins;
# tested_below is re-derived from the naive enumeration where tractable
MINIMAL_ROWS = [
    (0.5, 10, ((2, 11),), 4),
    (1.0, 30, ((2, 31),), 14),
    (1.25, 60, ((3, 31),), 28),
    (1.5, 120, ((2, 3, 7, 11),), 58),
    (1.75, 480, ((3, 5, 7, 11),), 238),
    (2.0, 480, ((3, 5, 7, 11),), 238),
    (2.25, 1560, ((2, 3, 7, 131),), 775),
    (2.5, 2240, ((2, 3, 17, 71),), 1115),
]

# the same with the torsion filter on; l=2.2 has two tied minimizers
TORSION_FREE_ROWS = [
    (1.0, 120, ((5, 31),), 58),
    (2.2, 1920, ((2, 3, 5, 241), (2, 11, 13, 17)), 955),
]


def test_max_ram_cardinality():
    assert max_ram_cardinality(480) == 4
    assert max_ram_cardinality(481) == 4
    assert max_ram_cardinality(5761) == 6
    assert max_ram_cardinality(10) == 2
    assert max_ram_cardinality(2) == 0
    assert max_ram_cardinality(1) == 0
    with pytest.raises(InputError):
        max_ram_cardinality(0)


def test_candidate_algebra_2d():
    # the first minimizer is admissible and lex-least among its ties
    def candidate(l):
        return algebra_q(minimal_algebra_2d(l).sets[0])

    assert candidate(0.01).ram_sorted == (2, 3)
    assert candidate(0.5).ram_sorted == (2, 11)
    assert candidate(1.0).ram_sorted == (2, 31)
    with pytest.raises(InputError):
        candidate(-1.0)
    with pytest.raises(InputError):
        candidate(float("nan"))


@pytest.mark.parametrize("l,factor,sets,tested_below", MINIMAL_ROWS)
def test_minimal_algebra_2d_rows(l, factor, sets, tested_below):
    res = minimal_algebra_2d(l)
    assert res.factor == factor
    assert res.sets == sets
    assert res.tested_below_optimum == tested_below
    assert res.exhaustive is True and res.best_effort is False
    assert res.base == "Q" and res.l == l
    # certificates: every excluded field gets a ramified prime splitting in it,
    # re-checked against the independent residue oracle
    for s, cert in zip(res.sets, res.certificates):
        assert set(cert) == set(res.excluded_fields)
        for field, witness in cert.items():
            assert witness in s
            assert brute_splitting_q(field.d, witness) == "split"


# rows per chunk and per vectorized step: the sweep's default; a few, so
# that the slices of a cardinality take many chunks, single slices exceed
# one step, and the pair wheels stay small and scan in many steps; and 500,
# so that one chunk holds many slices
STEP_ROWS = (search._BATCH_ROWS, 3, 500)


def test_minimal_tested_below_matches_naive_count(monkeypatch):
    # the count is of sets tested, passing or not, so the torsion filter
    # does not enter it
    for rows, torsion in ((MINIMAL_ROWS, False), (TORSION_FREE_ROWS, True)):
        for l, factor, sets, tested_below in rows:
            cards = range(2, max_ram_cardinality(factor + 1) + 1, 2)
            naive = sum(len(naive_prime_sets(factor, c)) for c in cards)
            assert naive == tested_below, l
            discs = [f.disc for f in fields_with_regulator_below(l)]
            for batch_rows in STEP_ROWS:
                monkeypatch.setattr(search, "_BATCH_ROWS", batch_rows)
                assert _minimal_sets(discs, torsion) == (factor, list(sets), naive), l


def test_minimal_factor_monotone_in_bound():
    factors = [row[1] for row in MINIMAL_ROWS]
    assert factors == sorted(factors)


def test_minimal_torsion_free_variant():
    for l, factor, sets, tested_below in TORSION_FREE_ROWS:
        res = minimal_algebra_2d(l, require_torsion_free=True)
        assert (res.factor, res.sets, res.tested_below_optimum) == \
            (factor, sets, tested_below), l
        # e.g. 5 = 1 mod 4 kills 2-torsion, 31 = 1 mod 3 kills 3-torsion
        assert all(any(p % 4 == 1 for p in s) and any(p % 3 == 1 for p in s)
                   for s in res.sets)


def test_lost_certificate_raises_a_package_error(monkeypatch):
    # a real exception, not an assert, so the guard also holds under python -O
    monkeypatch.setattr(search, "splitting_type_q", lambda field, p: "inert")
    with pytest.raises(SysarithError, match="certificate"):
        minimal_algebra_2d(1.0)
    monkeypatch.setattr(search, "splitting_in_ext", lambda P, ext: "inert")
    with pytest.raises(SysarithError, match="certificate"):
        search._certify_qi((ideal_above(2), ideal_above(5)),
                           quad_exts_with_disc_below(20))


@pytest.mark.parametrize("n_fields", [3, 63])
def test_mask_matrix_torsion_bits(n_fields):
    # with 63 fields the two torsion bits straddle the word boundary
    primes = np.array(sieve_primes(2999), dtype=np.int64)
    masks = _MaskMatrix([5] * n_fields, torsion=True)
    masks.hold(2999)
    words = masks.prefix_rows(len(primes))
    rows = word_ints(words)
    assert len(rows) == len(primes)
    assert words.shape[1] == len(masks.target) == (1 if n_fields == 3 else 2)

    def bit(b):
        return [bool(row >> b & 1) for row in rows]

    assert bit(n_fields) == [p % 4 == 1 for p in primes.tolist()]
    assert bit(n_fields + 1) == [p % 3 == 1 for p in primes.tolist()]
    assert word_ints([masks.target])[0].bit_count() == n_fields + 2


def test_open_bits_are_the_clear_bits_above_word_0_lowest_first():
    # need, the bits a prefix with row OR acc leaves open, in words
    masks = _MaskMatrix([5] * 150, torsion=True)  # 152 bits in three words
    target = word_ints([masks.target])[0]
    rng = np.random.default_rng(3)
    accs = [0, target, target >> 100, (1 << 64) - 1,
            *(sum(1 << b for b in range(152) if rng.random() < 0.7) for _ in range(20))]
    for acc, need in zip(accs, int_words([target & ~acc for acc in accs], 3)):
        want = [b for b in range(64, 152) if not acc >> b & 1]
        assert list(masks.open_bits(need)) == want, hex(acc)
    assert next(masks.open_bits(int_words([target & ~(1 << 64)])[0])) == 65


@pytest.mark.parametrize("torsion", [False, True])
def test_mask_matrix_passing_matches_the_split_oracle(torsion):
    # a field's table has period |disc| and reads 1 at the primes that
    # split in it; the torsion tables read 1 at p = 1 mod 4 and p = 1 mod 3
    ds = [2, 3, 5, 6, 7, 13]
    discs = [d if d % 4 == 1 else 4 * d for d in ds]
    masks = _MaskMatrix(discs, torsion)
    d_of = dict(zip(discs, ds))
    n_bits = len(ds) + 2 * torsion
    primes = sieve_primes(3000)

    def reads_1(bit, p):
        if bit < len(ds):
            return brute_splitting_q(d_of[len(masks.tables[bit])], p) == "split"
        return p % (4, 3)[bit - len(ds)] == 1

    def passing(bits, n=primes):
        return masks.passing(np.array(n, dtype=np.int64), bits).tolist()

    assert passing([]) == primes
    rng = np.random.default_rng(7)
    for b in range(n_bits):
        assert passing([b]) == [p for p in primes if reads_1(b, p)], b
    for _ in range(20):
        bits = rng.permutation(n_bits)[:rng.integers(2, n_bits + 1)].tolist()
        assert passing(bits) == [p for p in primes if all(reads_1(b, p) for b in bits)], bits
    # a prime that only the last of the bits rejects
    every = range(n_bits)
    q, last = next((p, fails[0]) for p in primes
                   if len(fails := [b for b in every if not reads_1(b, p)]) == 1)
    bits = [b for b in every if b != last] + [last]
    assert passing(bits[:-1], [q]) == [q] and passing(bits, [q]) == []


@pytest.mark.parametrize("torsion", [False, True])
def test_word_0_of_every_hold_is_the_table_kernels(torsion, monkeypatch):
    # the wheels' word 0 of every prime a hold adds is build_split_masks's
    # over the first 64 tables, bit for bit: at l = 0.3 with no field (no
    # bit at all, or the torsion bits alone), with the torsion bits in word
    # 0, and with fields above it; l = 0.3 passes at its least even set
    holds = []
    hold = _MaskMatrix.hold

    def spy(self, c):
        n = self.n
        hold(self, c)
        want = _accel.build_split_masks(self.facs[n:] + 1, self.tables[:64])
        holds.append((self._w0[n:self.n].tolist(),
                      want[:, :1].sum(axis=1, dtype=np.uint64).tolist()))

    monkeypatch.setattr(_MaskMatrix, "hold", spy)
    assert _minimal_sets([], torsion) == naive_minimal_sets([], torsion) == \
        ((12, [(2, 13)], 5) if torsion else (2, [(2, 3)], 0))
    for l in (1.0, 2.2, 4.0):
        discs = [f.disc for f in fields_with_regulator_below(l)]
        _minimal_sets(discs, torsion)
    assert len(discs) > 64 and sum(len(w) for w, _ in holds) > 1000
    assert all(got == want for got, want in holds)


@pytest.mark.parametrize("n_fields", [40, 127])
def test_first_passes_find_the_least_passing_row(n_fields, monkeypatch):
    # prefixes that leave one to four bits open, in word 0 and above it, so
    # that many rows of a slice pass; each slice's answer is its least
    # passing row, by a scan of the full rows, whether the slices share a
    # vectorized step, one slice takes many, or the slices fill many steps
    ds = [d for d in range(2, 500) if brute_is_squarefree(d)][:n_fields]
    masks = _MaskMatrix([d if d % 4 == 1 else 4 * d for d in ds], torsion=True)
    masks.hold(20_000)
    rows = word_ints(masks.prefix_rows(masks.n))
    target = word_ints([masks.target])[0]
    bits = n_fields + 2
    rng = np.random.default_rng(5)
    accs = [target & ~sum(1 << int(b) for b in rng.choice(bits, k, replace=False))
            for k in rng.integers(1, 5, size=60)]
    j0s = rng.integers(0, masks.n, size=60)
    j1s = np.minimum(j0s + rng.integers(0, 400, size=60), masks.n)
    want = [next((j for j in range(j0, j1) if acc | rows[j] == target), None)
            for acc, j0, j1 in zip(accs, j0s.tolist(), j1s.tolist())]
    assert sum(j is not None for j in want) > 30
    need = int_words([target & ~acc for acc in accs], len(masks.target))
    for batch_rows in STEP_ROWS:
        monkeypatch.setattr(search, "_BATCH_ROWS", batch_rows)
        assert masks.first_passes(need, j0s, j1s) == want, batch_rows


def test_first_passes_read_the_long_slices_in_place(monkeypatch):
    # slices of L - 1, L and L + 1 rows, L = _IN_PLACE_ROWS, and of one more
    # than the default step, each under a need open in word 0 and above it,
    # open only above it, open nowhere, and open everywhere: each answer is
    # the slice's least passing row by a scan of the full rows, and exactly
    # the slices of at least L rows, or of more than one step, are read in
    # place by _first_pass
    L, step = search._IN_PLACE_ROWS, search._BATCH_ROWS
    ds = [d for d in range(2, 500) if brute_is_squarefree(d)][:127]
    masks = _MaskMatrix([d if d % 4 == 1 else 4 * d for d in ds], torsion=True)
    masks.hold(1_000_000)
    rows = word_ints(masks.prefix_rows(masks.n))
    target = word_ints([masks.target])[0]
    rng = np.random.default_rng(11)

    def bits(lo, k):
        return sum(1 << int(b) for b in rng.choice(range(lo, target.bit_length()), k, replace=False))

    slices = []
    for n_rows in (L - 1, L, L + 1, step + 1):
        for need in (bits(0, 1) | bits(64, 2), bits(64, 3), 0, target):
            j0 = int(rng.integers(0, masks.n - n_rows))
            slices.append((need, j0, j0 + n_rows))
    needs, j0s, j1s = map(list, zip(*slices))
    want = [next((j for j in range(j0, j1) if rows[j] & need == need), None)
            for need, j0, j1 in zip(needs, j0s, j1s)]
    assert sum(j is not None for j in want) == 12 and want[2::4] == j0s[2::4]
    in_place = []
    first_pass = _MaskMatrix._first_pass

    def spy(self, need, j0, j1):
        in_place.append((j0, j1))
        return first_pass(self, need, j0, j1)

    monkeypatch.setattr(_MaskMatrix, "_first_pass", spy)
    need = int_words(needs, len(masks.target))
    for batch_rows in STEP_ROWS:
        monkeypatch.setattr(search, "_BATCH_ROWS", batch_rows)
        in_place.clear()
        assert masks.first_passes(need, np.array(j0s), np.array(j1s)) == want, batch_rows
        assert in_place == [(j0, j1) for j0, j1 in zip(j0s, j1s)
                            if j1 - j0 >= L or j1 - j0 > batch_rows], batch_rows
        assert len(in_place) == (16 if batch_rows < L - 1 else 12), batch_rows


@functools.cache
def word0_fields():
    """126 fields Q(sqrt d) in which 2 splits, then one, d_odd, in which 2
    is inert and no prime below 20 splits.  The 126 are split by the fewest
    odd primes below the sweep's ranking bound (counted by Euler's
    criterion) and d_odd by the most, so word 0, which holds the fields the
    fewest of those primes split, leaves d_odd above it.  The cheapest sets
    covering the others, such as (2, 3), miss d_odd."""
    small = sieve_primes(search._WORD0_RANK_BOUND - 1)[1:]
    candidates = [d for d in range(2, 3000) if brute_is_squarefree(d)]

    def count(d):
        return sum(pow(d, (p - 1) // 2, p) == 1 for p in small)

    two_split = sorted((d for d in candidates if d % 8 == 1), key=count)[:126]
    odd = max((d for d in range(5, 30000, 8) if brute_is_squarefree(d)
               and all(brute_splitting_q(d, p) != "split" for p in small[:7])),
              key=count)
    # + 1: the ranking also counts 2, which splits in the others
    assert count(odd) > max(count(d) for d in two_split) + 1
    return two_split, odd


@pytest.mark.parametrize("torsion", [True, False])
@pytest.mark.parametrize("n_fields", [64, 65, 127])
def test_minimal_sets_match_naive_oracle_past_word_0(n_fields, torsion, monkeypatch):
    # more than 64 fields put fields, and the torsion bits, above word 0, so
    # the survivors of the word-0 filter must be re-checked exactly
    two_split, odd = word0_fields()
    ds = two_split[:n_fields] if n_fields == 64 else two_split[:n_fields - 1] + [odd]
    assert len(set(ds)) == n_fields
    discs = [d if d % 4 == 1 else 4 * d for d in ds]
    want = naive_minimal_sets(ds, torsion)
    for batch_rows in STEP_ROWS:
        monkeypatch.setattr(search, "_BATCH_ROWS", batch_rows)
        assert _minimal_sets(discs, torsion) == want, batch_rows


def ideal_pool(facs, rows, n_bits):
    """An _IdealPool over given factors and Python-int rows of n_bits bits."""
    masks = _IdealPool.__new__(_IdealPool)
    masks.facs = np.array(facs, dtype=np.int64)
    masks.rows = int_words(rows, -(-n_bits // 64))
    masks.target = int_words([(1 << n_bits) - 1])[0]
    return masks


# every set passes; or a set passes iff it holds one of 0, 3 and one of 1, 2, 5
@pytest.mark.parametrize("rows,target", [([1] * 6, 1), ([1, 2, 2, 1, 0, 2], 3)])
def test_sweep_keeps_ties_inside_a_batch(rows, target, monkeypatch):
    # repeated factors give tied sets in one chunk, and in one slice; when
    # every set passes, the first hit of a chunk lowers the limit while its
    # later slices, and the later chunks, still hold ties and dearer passes.
    # The count of every subset below the range's best, or below its hi if
    # none passes, reads the tied factors too
    facs = [1, 4, 4, 8, 12, 12]
    masks = ideal_pool(facs, rows, target.bit_length())
    count_le = functools.partial(masks.facs.searchsorted, side="right")
    subsets = [c for k in (2, 4, 6) for c in itertools.combinations(range(6), k)]
    for lo in (2 ** k for k in range(1, 16)):
        in_range = [c for c in subsets if lo <= math.prod(facs[i] for i in c) < 2 * lo]
        passing = [c for c in in_range
                   if functools.reduce(int.__or__, (rows[i] for i in c)) == target]
        best = min((math.prod(facs[i] for i in c) for c in passing), default=None)
        winners = sorted(c for c in passing if math.prod(facs[i] for i in c) == best)
        for batch_rows in STEP_ROWS:
            monkeypatch.setattr(search, "_BATCH_ROWS", batch_rows)
            got, got_winners = _sweep_sets(masks, lo, 2 * lo)
            assert (got, sorted(got_winners)) == (best, winners), (lo, batch_rows)
        below = 2 * lo if best is None else best
        n_below = sum(math.prod(facs[i] for i in c) < below for c in subsets)
        assert _sets_below(masks.facs, below, count_le) == n_below, lo


@pytest.mark.parametrize("held", ["short of the root", "at the root", "past best"])
def test_sets_below_matches_naive_prime_sets(held):
    # every even prime set below best, for every best to 600; the masks
    # hold the primes p <= h, and pi(x) counts the last members past them
    top = 600
    cards = range(2, max_ram_cardinality(top) + 1, 2)
    factors = sorted(math.prod(p - 1 for p in s)
                     for c in cards for s in naive_prime_sets(top, c))
    for best in range(2, top + 1):
        root = math.isqrt(best)
        h = {"short of the root": root // 2, "at the root": root, "past best": best}[held]
        masks = _MaskMatrix([5], False)
        masks.hold(h)
        assert search._sets_below_q(masks, best) == bisect.bisect_left(factors, best), best


def test_prefix_walk_matches_the_combinations_in_range():
    # every (prefix, last member j) that the walk's slices hold is a set of
    # `card` indices with factor in [lo, hi), and each such set once; tied
    # factors, as over Q(i), included
    rng = random.Random(0)
    for _ in range(400):
        facs = np.array(sorted(rng.choices(range(1, 40), k=rng.randint(4, 12))), dtype=np.int64)
        lo = rng.randint(1, 10 ** rng.randint(1, 7))
        hi = lo + rng.randint(1, 10 ** rng.randint(1, 7))
        for card in (2, 4, 6):
            want = [c for c in itertools.combinations(range(len(facs)), card)
                    if lo <= math.prod(int(facs[i]) for i in c) < hi]
            if card > search._top_card(facs, hi):
                assert want == [], (facs, lo, hi, card)
                continue
            prods, starts, members = search._prefixes(facs, card, lo, hi)
            j0s = np.maximum(facs.searchsorted((lo - 1) // prods + 1), starts)
            j1s = facs.searchsorted((hi - 1) // prods + 1)
            got = [(*(int(c[k]) for c in members), j)
                   for k in range(len(prods)) for j in range(j0s[k], j1s[k])]
            assert sorted(got) == want, (facs.tolist(), lo, hi, card)


def test_sets_below_counts_the_even_pool_subsets_with_tied_factors():
    # conjugate ideals of one norm give tied factors
    pool = gaussian_primes_up_to_norm(30)
    masks = _IdealPool(pool, *gaussian._exts_and_columns(20))
    facs = masks.facs.tolist()
    assert facs == [1, 4, 4, 8, 12, 12, 16, 16, 28, 28]
    factors = sorted(math.prod(c) for k in range(2, len(facs) + 1, 2)
                     for c in itertools.combinations(facs, k))
    count_le = functools.partial(masks.facs.searchsorted, side="right")
    for best in sorted({2} | {f + d for f in factors for d in (0, 1)}):
        want = bisect.bisect_left(factors, best)
        assert _sets_below(masks.facs, best, count_le) == want, best


def test_minimal_result_json_roundtrips():
    res = minimal_algebra_2d(1.0)
    j = json.loads(json.dumps(res.to_json()))
    assert j["factor_or_volume"] == 30
    assert j["sets"] == [[2, 31]]
    assert j["exhaustive"] is True


def test_search_result_algebras_over_q_and_qi():
    assert minimal_algebra_2d(1.0).algebras() == [algebra_q([2, 31])]
    res = valid_algebra_3d(1.0, 30)
    algebras = res.algebras()
    assert all(isinstance(B, QuaternionAlgebraQi) for B in algebras)
    assert algebras == [algebra_qi(res.sets[0])]
    assert [B.ram_norms for B in algebras] == [(2, 5, 5, 9, 13, 13)]


def test_valid_algebra_3d_tiny_bound():
    # even as l -> 0 the extension list keeps everything with discriminant
    # norm <= e^4, so an admissible pair can no longer cover it; the honest
    # optimum in the norm-100 pool is the conjugate-symmetric pair of sets
    res = valid_algebra_3d(0.01, 100)
    assert res.factor == 4992
    assert [tuple(P.norm for P in s) for s in res.sets] == [
        (2, 9, 13, 53), (2, 9, 13, 53)]
    assert [[str(P.gen) for P in s] for s in res.sets] == [
        ["1+1i", "3", "3+2i", "7+2i"], ["1+1i", "3", "2+3i", "2+7i"]]
    assert res.volume == pytest.approx(1524.1667487108925, rel=1e-12)
    assert res.tested_below_optimum == 537
    assert res.exhaustive is False and res.best_effort is True


def test_valid_algebra_3d_norm30_pool():
    res = valid_algebra_3d(1.0, 30)
    assert res.factor == 18432
    assert len(res.sets) == 1
    assert [str(P.gen) for P in res.sets[0]] == [
        "1+1i", "2+1i", "1+2i", "3", "3+2i", "2+3i"]
    assert res.volume == pytest.approx(5627.692610624834, rel=1e-12)
    assert res.tested_below_optimum == 190
    assert_certified_qi(res)


def assert_certified_qi(res):
    """Each set's certificate names, for every extension, a member of the
    set that the residue-field enumeration oracles find split in it."""
    for s, cert in zip(res.sets, res.certificates):
        assert list(cert) == list(res.excluded_fields)
        for ext, witness in cert.items():
            assert witness in s
            assert brute_splits_qi(witness, ext.delta.a, ext.delta.b)


def row_bits(row, n):
    return [bool(row >> k & 1) for k in range(n)]


def test_split_rows_qi_match_brute_oracle():
    # the pool holds (1+i), the inert ideals of norm 9, 49 and 121, split
    # conjugates, and ideals that ramify in some of the extensions
    exts = quad_exts_with_disc_below(math.exp(8))
    pool = gaussian_primes_up_to_norm(200)
    assert {P.norm for P in pool} >= {2, 9, 49, 121}
    assert any(P.gen in e.gens for P in pool for e in exts)
    rows = word_ints(_split_rows_qi(pool, exts, ext_columns(exts)))
    assert len(rows) == len(pool)
    for P, row in zip(pool, rows):
        assert row_bits(row, len(exts)) == [
            brute_splits_qi(P, e.delta.a, e.delta.b) for e in exts], str(P.gen)
        assert row >> len(exts) == 0


def test_split_rows_qi_match_splitting_in_ext_on_the_cover_window():
    # the window cover_algebra_3d(3.0) reads: three times the largest
    # discriminant norm below e^8, 1116 ideals
    exts = quad_exts_with_disc_below(math.exp(8))
    pool = gaussian_primes_up_to_norm(3 * max(e.rel_disc_norm for e in exts))
    assert len(pool) == 1116
    for P, row in zip(pool, word_ints(_split_rows_qi(pool, exts, ext_columns(exts)))):
        assert row_bits(row, len(exts)) == [
            splitting_in_ext(P, e) == SPLIT for e in exts], str(P.gen)


@pytest.mark.parametrize("delta,p", [(3, 3), (GaussianInt(2, 1), 5)])
def test_split_rows_qi_reject_a_zero_residue_outside_the_generators(delta, p):
    # an ideal dividing delta must be one of ext.gens; an extension that
    # lost its generators breaks that, and the rows say so
    ext = quad_ext(delta)
    P = ideal_above(p)
    assert P.gen in ext.gens and word_ints(_split_rows_qi([P], [ext], ext_columns([ext]))) == [0]
    lost = dataclasses.replace(ext, gens=())
    with pytest.raises(SysarithError, match="residue symbol"):
        _split_rows_qi([P], [lost], ext_columns([lost]))


@pytest.mark.parametrize("n_exts", [63, 64, 65])
def test_split_rows_qi_leave_the_padding_bits_clear(n_exts):
    # one word more at 65 extensions; no bit past the last extension is set
    exts = quad_exts_with_disc_below(math.exp(8))[:n_exts]
    pool = gaussian_primes_up_to_norm(200)
    words = _split_rows_qi(pool, exts, ext_columns(exts))
    assert words.dtype == np.uint64 and words.shape == (len(pool), 1 if n_exts < 65 else 2)
    for P, row in zip(pool, word_ints(words)):
        assert row >> n_exts == 0, str(P.gen)
        assert row_bits(row, n_exts) == [splitting_in_ext(P, e) == SPLIT for e in exts], str(P.gen)


def test_split_rows_qi_of_no_extension_are_one_zero_word():
    pool = gaussian_primes_up_to_norm(50)
    words = _split_rows_qi(pool, [], ext_columns([]))
    assert words.shape == (len(pool), 1) and not words.any()


def lost_gens(delta, gens=()):
    """quad_ext(delta) with its generators replaced: a zero residue at an
    ideal that is not among them is no longer allowed."""
    return dataclasses.replace(quad_ext(delta), gens=gens)


@pytest.mark.parametrize("norm,exts,message", [
    # split: the lost extensions are zero at 2+3i (ext 1) and 3+2i (exts 3
    # and 4); 3+2i comes first in the pool, and ext 3 first at it
    (13, [quad_ext(3), lost_gens(GaussianInt(2, 3)), quad_ext(GaussianInt(2, 1)),
          lost_gens(GaussianInt(3, 2)), lost_gens(GaussianInt(-2, 3))],
     "residue symbol of 3+2i at unramified 3+2i is 0"),
    # inert: zero at (7) (exts 0 and 3) and at (3) (exts 2 and 3); (3) comes
    # first in the pool, and ext 2 first at it
    (49, [lost_gens(7), quad_ext(3), lost_gens(GaussianInt(0, 3)), lost_gens(21)],
     "residue symbol of 3i at unramified 3 is 0"),
])
def test_split_rows_qi_name_the_first_offender_in_pool_order(norm, exts, message):
    pool = gaussian_primes_up_to_norm(norm)
    assert len(pool) > 4 and pool[0].norm == 2
    with pytest.raises(SysarithError) as err:
        _split_rows_qi(pool, exts, ext_columns(exts))
    assert str(err.value) == message
    # the same extensions with their generators kept give the oracle's rows
    kept = [quad_ext(e.delta) for e in exts]
    for P, row in zip(pool, word_ints(_split_rows_qi(pool, kept, ext_columns(kept)))):
        assert row_bits(row, len(kept)) == [
            brute_splits_qi(P, e.delta.a, e.delta.b) for e in kept], str(P.gen)


@pytest.mark.parametrize("p", [5, 13, 1009])
def test_split_rows_qi_check_zeros_at_each_conjugate_apart(p):
    # delta = P.gen is zero at P alone, not at its conjugate: each conjugate
    # reads its own i = r mod it, for the residues and for the generator
    # column, so an extension listing the other conjugate's generator fails
    pair = list(gaussian._ideals_above(p))
    for P, other in (pair, pair[::-1]):
        ext = quad_ext(P.gen)
        assert ext.gens == (P.gen,) and quad_residue_symbol(ext.delta, other) != 0
        rows = word_ints(_split_rows_qi(pair, [ext], ext_columns([ext])))
        assert rows == [int(splitting_in_ext(Q, ext) == SPLIT) for Q in pair]
        assert rows[pair.index(P)] == 0
        wrong = dataclasses.replace(ext, gens=(other.gen,))
        with pytest.raises(SysarithError, match=re.escape(f"at unramified {P.gen} is 0")):
            _split_rows_qi(pair, [wrong], ext_columns([wrong]))


# the symbols at the primes from 262147 on come by Euler's criterion, not
# from a table of all their residues; 262133 (split) and 262139 (inert) are
# the last below the table's bound, 262147 (inert) and 262153 (split) the
# first past it.  1000003 is an inert norm of 13 digits; past 10^18 the
# residues a + b*r leave int64, and past 2^63 so does r
@pytest.mark.parametrize("p", [262_133, 262_139, 262_147, 262_153, 100_000_037, 1_000_003,
                               5_000_000_029, 5_000_000_039, 10**18 + 9, 10**20 + 129])
def test_split_rows_qi_at_large_norms_match_splitting_in_ext(p):
    assert is_prime(p) and (p < _accel._TABLE_BELOW) == (p < 262_140)
    exts = quad_exts_with_disc_below(math.exp(6))
    pool = list(gaussian._ideals_above(p))
    exts.append(gaussian._ext_from_parts(0, (pool[-1].gen,)))  # zero at pool[-1] alone
    for P, row in zip(pool, word_ints(_split_rows_qi(pool, exts, ext_columns(exts)))):
        assert row_bits(row, len(exts)) == [splitting_in_ext(P, e) == SPLIT for e in exts]


def test_verify_exclusion_3d_at_a_10_digit_norm_stays_small():
    # a Legendre table over all residues of 5000000029 would ask for 18.6 GiB
    quad_exts_with_disc_below(math.exp(6))  # the list is built outside the bound
    tracemalloc.start()
    try:
        report = verify_exclusion_3d([2, 5_000_000_029], 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert report.tested_extensions == 103 and len(report.assignments) == 2
    exts = quad_exts_with_disc_below(math.exp(6))
    for a in report.assignments:
        P = a.ideals[1]
        open_ = [e for e in exts if all(splitting_in_ext(Q, e) != SPLIT for Q in a.ideals)]
        assert a.valid == (not open_) and a.failing_ext == (open_[0] if open_ else None)
        assert P.norm == 5_000_000_029


def test_torsion_conditions_are_the_split_bits_of_sqrt_i_and_sqrt_3():
    # (2/P) = (i/P) at every odd P, since 2 = -i(1+i)^2, so TORSION_QI asks
    # for an odd P split in Q(i)(sqrt i) and one split in Q(i)(sqrt 3); (1+i)
    # meets neither condition and splits in neither extension
    pool = gaussian_primes_up_to_norm(20_000)
    assert len(pool) == 2269 and {P.kind for P in pool} == {"ramified", "split", "inert"}
    exts = [quad_ext(GaussianInt(0, 1)), quad_ext(3)]
    rows = word_ints(_split_rows_qi(pool, exts, ext_columns(exts)))
    for P, row in zip(pool, rows):
        assert row_bits(row, 2) == [cond(P) for cond in TORSION_QI], str(P.gen)
    sample = pool[:12] + random.Random(18).sample(pool, 60)
    for P in sample:
        assert row_bits(rows[pool.index(P)], 2) == [
            brute_splits_qi(P, e.delta.a, e.delta.b) for e in exts], str(P.gen)


@pytest.mark.parametrize("n_bits", [100, 129, 192])
def test_ideal_pool_first_passes_match_the_row_scan(n_bits):
    # rows of two and three words, with bits at the word edges 63/64 and
    # 127/128; the pool drops a slice's rows one word at a time, and each
    # slice's answer is still its least j with acc | rows[j] == target
    rng = random.Random(n_bits)
    target = (1 << n_bits) - 1
    rows = [sum(1 << b for b in range(n_bits) if rng.random() < 0.9) for _ in range(60)]
    # row 60 passes word 0 of the need 1 | 1 << 64 but fails word 1; row 61 passes
    rows += [target & ~(1 << 64), target]
    edges = [b for b in (0, 63, 64, 127, 128) if b < n_bits]
    cases = [(1 | 1 << 64, 60, 62), (1 | 1 << 64, 60, 61),
             (0, 5, 5), (0, 9, 3),  # empty slices
             (0, 0, 62), (0, 30, 40),  # every row passes
             (sum(1 << b for b in edges if b >= 64), 0, 62),  # open only above word 0
             *((1 << b, 0, 62) for b in edges)]
    for _ in range(300):
        j0 = rng.randrange(62)
        need = sum(1 << b for b in rng.sample(range(n_bits), rng.randint(1, 4)))
        cases.append((need, j0, min(62, j0 + rng.randint(0, 25))))
    needs, j0s, j1s = zip(*cases)
    want = [next((j for j in range(j0, j1) if (target & ~need) | rows[j] == target), None)
            for need, j0, j1 in cases]
    assert rows[60] & 1 and not rows[60] >> 64 & 1
    assert want[:6] == [61, None, None, None, 0, 30]
    assert sum(j is not None for j in want) > 100
    masks = ideal_pool(range(1, 63), rows, n_bits)
    got = masks.first_passes(int_words(needs, -(-n_bits // 64)),
                             np.array(j0s, dtype=np.int64), np.array(j1s, dtype=np.int64))
    assert got == want


def test_sweep_over_three_word_pool_rows_matches_the_subsets(monkeypatch):
    # tied factors, as conjugate ideals give, and 150-bit rows; the sweep's
    # optimum and ties in each range, and its count below, are those of
    # every even subset, whatever the chunk size
    rng = random.Random(7)
    facs = [1, 4, 4, 8, 12, 12, 16, 16]
    rows = [sum(1 << b for b in range(150) if rng.random() < 0.9) for _ in facs]
    masks = ideal_pool(facs, rows, 150)
    subsets = [c for k in (2, 4, 6, 8) for c in itertools.combinations(range(8), k)]
    passing = [c for c in subsets
               if functools.reduce(int.__or__, (rows[i] for i in c)) == (1 << 150) - 1]
    assert 0 < len(passing) < len(subsets)
    found = 0
    for lo in (2 ** k for k in range(1, 22)):
        in_range = [c for c in passing if lo <= math.prod(facs[i] for i in c) < 2 * lo]
        best = min((math.prod(facs[i] for i in c) for c in in_range), default=None)
        winners = sorted(c for c in in_range if math.prod(facs[i] for i in c) == best)
        found += best is not None
        for batch_rows in STEP_ROWS:
            monkeypatch.setattr(search, "_BATCH_ROWS", batch_rows)
            got, got_winners = _sweep_sets(masks, lo, 2 * lo)
            assert (got, sorted(got_winners)) == (best, winners), (lo, batch_rows)
    assert found > 3


@pytest.mark.parametrize("pool_bound", [13, 30, 50])
@pytest.mark.parametrize("l", [0.01, 0.5, 1.0])
def test_valid_algebra_3d_matches_subset_oracle(l, pool_bound):
    # every even subset of the pool, tried by itertools.combinations on rows
    # from the brute residue symbols, gives the same optimum, ties and count;
    # in the norm-13 pool only the whole pool passes, in the sweep's last range
    pool = gaussian_primes_up_to_norm(pool_bound)
    exts = quad_exts_with_disc_below(math.exp(2.0 * (l + 2.0)))
    want = naive_valid_sets_qi(pool, exts)
    if want is None:
        with pytest.raises(NoCandidateError):
            valid_algebra_3d(l, pool_bound)
        return
    factor, sets, n_below = want
    res = valid_algebra_3d(l, pool_bound)
    assert res.factor == factor
    assert sorted(map(str, res.sets)) == sorted(map(str, sets))
    assert res.tested_below_optimum == n_below


def test_valid_algebra_3d_norm150_pool_beats_norm100_optimum():
    # the heap search gave up here once its 200000 pops were spent; the
    # sweep finds a set cheaper than the norm-100 optimum 536,739,840
    res = valid_algebra_3d(2.0, 150)
    assert res.factor < 536_739_840
    assert all(math.prod(P.norm - 1 for P in s) == res.factor for s in res.sets)
    assert_certified_qi(res)


@pytest.mark.parametrize("pool_bound,n_ideals", [(5, 3), (9, 4), (10, 4)])
def test_valid_algebra_3d_exhausted_pool_message(pool_bound, n_ideals):
    # a pool with no passing even subset says so, not that a budget ran out
    with pytest.raises(NoCandidateError) as err:
        valid_algebra_3d(1.0, pool_bound)
    msg = str(err.value)
    assert f"no even subset of the {n_ideals} ideals" in msg
    assert "budget" not in msg


def test_valid_algebra_3d_stops_at_the_int64_limit(monkeypatch):
    # in a pool of (1+i) and the 10 ideals of norm 257 to 293 only those 10
    # together cover the extensions, at a factor of about 2^81; the sweep
    # stops before its int64 products could wrap
    def pool(bound):
        return [P for P in gaussian_primes_up_to_norm(bound) if P.norm == 2 or P.norm > 256]

    def rows(pool, exts, cols):
        k = len(pool) - 2
        return int_words([0] + [1 << b for b in range(k)] + [((1 << len(exts)) - 1) >> k << k])

    monkeypatch.setattr(search, "gaussian_primes_up_to_norm", pool)
    monkeypatch.setattr(search, "_split_rows_qi", rows)
    assert len(pool(300)) == 11
    assert math.prod(P.norm - 1 for P in pool(300)) > 2 ** 80
    with pytest.raises(NoCandidateError, match=r"int64 limit 2\^63 - 1"):
        valid_algebra_3d(1.0, 300)


def test_valid_algebra_3d_errors():
    with pytest.raises(InputError):
        valid_algebra_3d(1.0, 1)
    with pytest.raises(InputError):
        valid_algebra_3d(0.0, 30)
    with pytest.raises(NoCandidateError):
        valid_algebra_3d(1.0, 2)  # pool is just (1+i)


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    quad_exts_with_disc_below,
    gaussian_primes_up_to_norm,
    lambda bound: valid_algebra_3d(1.0, bound),
], ids=["quad_exts", "gaussian_primes", "valid_algebra_3d"])
def test_non_finite_bounds_raise_input_error(call, bound):
    # each call floors its bound, which would leak ValueError or OverflowError
    with pytest.raises(InputError):
        call(bound)


@pytest.mark.parametrize("call", [
    lambda: valid_algebra_3d(10.0, 30),
    lambda: verify_exclusion_3d([2, 5], 10.0),
    lambda: quad_exts_with_disc_below(gaussian._DISC_CAP + 0.5),
], ids=["valid_algebra_3d", "verify_exclusion_3d", "quad_exts"])
def test_extension_list_past_the_cap_raises_input_error(call):
    # l = 10 asks for the extensions of norm up to e^24, about 7e9 of them
    # at 0.26 per unit of norm; the list refuses before it grows
    before = gaussian._exts_memo
    with pytest.raises(InputError, match="supported cap"):
        call()
    assert gaussian._exts_memo is before


def test_verify_exclusion_norm_multiset_2_5_9_13():
    rep = verify_exclusion_3d([2, 5, 9, 13], 1.0)
    assert rep.valid is False
    assert rep.tested_extensions == 103
    assert len(rep.assignments) == 4  # two conjugate choices each at 5 and 13
    # every assignment dies on one of the two norm-17 conjugate extensions:
    # each is split only by one of the two norm-5 primes, so a single norm-5
    # slot can never obstruct both
    for a in rep.assignments:
        assert a.valid is False
        assert a.failing_ext.rel_disc_norm == 17
    assert verify_exclusion_3d([2, 5, 9, 13], 3.0).valid is False


def test_verify_exclusion_conjugate_symmetric_control():
    rep = verify_exclusion_3d([2, 5, 5, 9, 13, 13], 1.0)
    assert rep.valid is True
    assert len(rep.assignments) == 1  # doubled norms force conjugate pairs
    assert rep.assignments[0].valid and rep.assignments[0].failing_ext is None
    assert [str(P.gen) for P in rep.assignments[0].ideals] == [
        "1+1i", "2+1i", "1+2i", "3", "3+2i", "2+3i"]
    assert verify_exclusion_3d([2, 5, 5, 9, 13, 13], 1.2).valid is True


@pytest.mark.parametrize("norms,l,valid,n_assignments", [
    ((2, 5, 5, 9, 13, 29), 1.1, True, 4),
    ((2, 5, 5, 9, 13, 17, 29, 53, 61, 61), 2.8, False, 16),
    ((2, 5, 5, 9, 13, 13), 1.3, False, 1),
])
def test_verify_exclusion_matches_a_brute_scan(norms, l, valid, n_assignments):
    # each assignment fails on the first extension, in list order, that
    # none of its ideals splits in by the residue enumeration oracles; every
    # failure here is past word 0, at l = 1.3 in word 2
    rep = verify_exclusion_3d(norms, l)
    exts = quad_exts_with_disc_below(math.exp(2.0 * (l + 2.0)))
    assert rep.tested_extensions == len(exts)
    assert len({a.ideals for a in rep.assignments}) == len(rep.assignments) == n_assignments
    for a in rep.assignments:
        assert sorted(P.norm for P in a.ideals) == list(norms)
        failing = next((e for e in exts if not any(
            brute_splits_qi(P, e.delta.a, e.delta.b) for P in a.ideals)), None)
        assert a.failing_ext == failing and a.valid == (failing is None)
    assert rep.valid is valid is any(a.valid for a in rep.assignments)
    assert sorted({exts.index(a.failing_ext) for a in rep.assignments if not a.valid}) == {
        1.1: [109, 110], 2.8: [457, 458], 1.3: [165]}[l]


def test_verify_exclusion_input_errors():
    with pytest.raises(InputError):
        verify_exclusion_3d([2, 4], 1.0)      # no ideal of norm 4
    with pytest.raises(InputError):
        verify_exclusion_3d([2, 7], 1.0)      # 7 inert: only norm 49 exists
    with pytest.raises(InputError):
        verify_exclusion_3d([2, 2], 1.0)      # the ramified prime is unique
    with pytest.raises(InputError):
        verify_exclusion_3d([9, 9], 1.0)      # the inert prime is unique
    with pytest.raises(InputError):
        verify_exclusion_3d([2, 5, 5, 5], 1.0)  # only two primes of norm 5
    with pytest.raises(InadmissibleAlgebraError):
        verify_exclusion_3d([2], 1.0)
    with pytest.raises(InadmissibleAlgebraError):
        verify_exclusion_3d([2, 5, 9], 1.0)


def test_verify_exclusion_caps_the_assignments_before_building_rows(monkeypatch):
    # 18 split norms of multiplicity 1 give 2^18 conjugate assignments; the
    # cap raises before the rows are built.  At a cap lowered to 4, two split
    # norms (4 assignments) still run and four (16) raise
    calls, split_rows = [], search._split_rows_qi
    monkeypatch.setattr(search, "_split_rows_qi",
                        lambda *args: calls.append(args) or split_rows(*args))
    split = [p for p in sieve_primes(200) if p % 4 == 1][:18]
    with pytest.raises(InputError, match="262144 conjugate assignments"):
        verify_exclusion_3d(split, 1.0)
    assert calls == []
    monkeypatch.setattr(search, "_ASSIGNMENT_CAP", 4)
    assert len(verify_exclusion_3d(split[:2], 1.0).assignments) == 4
    assert len(calls) == 1
    with pytest.raises(InputError, match="16 conjugate assignments"):
        verify_exclusion_3d(split[:4], 1.0)


def test_norm_choices_match_an_ideal_count_oracle():
    # the number of primes of Z[i] of norm n, from the rational primes alone:
    # one (1+i) for 2, two conjugates for p = 1 mod 4, one (q) for q^2 with
    # q = 3 mod 4, and none for any other n
    bound = 2000
    count = dict.fromkeys(range(1, bound + 1), 0)
    for p in sieve_primes(bound):
        if p == 2:
            count[2] = 1
        elif p % 4 == 1:
            count[p] = 2
        elif p * p <= bound:
            count[p * p] = 1
    for n, c in count.items():
        for m in (1, 2, 3):
            if m > c:
                with pytest.raises(InputError):
                    search._norm_choices(n, m)
                continue
            options = search._norm_choices(n, m)
            assert len(options) == len(set(options)) == math.comb(c, m), (n, m)
            for ideals in options:
                assert len(set(ideals)) == m
                assert all(P.gen.norm == P.norm == n for P in ideals), (n, m)


@pytest.mark.parametrize("norms", [[2, 5.7], [2, math.nan], [2, 5.0], [2, "5"]])
def test_verify_exclusion_takes_integer_norms_only(norms):
    # a float norm was truncated (5.7 checked as 5) and a NaN leaked ValueError
    with pytest.raises(InputError, match="integers"):
        verify_exclusion_3d(norms, 1.0)
    assert verify_exclusion_3d(np.array([2, 5]), 1.0).norms == (2, 5)


def test_exclusion_report_json():
    rep = verify_exclusion_3d([2, 5, 9, 13], 1.0)
    j = json.loads(json.dumps(rep.to_json()))
    assert j["valid"] is False and j["norms"] == [2, 5, 9, 13]
    assert len(j["assignments"]) == 4
    assert all(a["failing_ext"]["rel_disc_norm"] == 17 for a in j["assignments"])


def euler_fields(n, split=(), inert=()):
    """The n least squarefree d = 1 mod 4 such that every prime of `split`
    splits in Q(sqrt d) and every prime of `inert` is inert: Euler's
    criterion d^((p-1)/2) = +-1 mod p at odd p, d mod 8 at 2."""
    def symbol(d, p):
        if p == 2:
            return 1 if d % 8 == 1 else -1
        r = pow(d, (p - 1) // 2, p)
        return -1 if r == p - 1 else r

    out = []
    for d in itertools.count(5, 4):
        if (all(symbol(d, p) == 1 for p in split) and all(symbol(d, p) == -1 for p in inert)
                and brute_is_squarefree(d)):
            out.append(d)
            if len(out) == n:
                return out


# the pairs {p, q} with p in 2, 3, 5, 7 and q - 1 >= hi/8 of the range are
# found by the wheels: {2, 13} and {3, 7} tie at factor 12 across two
# wheels; (5, 79) is the optimum of [256, 512) with q - 1 = 78 past
# hi/8 = 64, because no prime below 20 splits the last four fields; 2
# splits every field of the last set, so the p = 2 wheel needs only the
# torsion bits
WHEEL_PAIRS = [
    ("tie", lambda: (euler_fields(1, split=(7, 13), inert=(2, 3, 5, 11))
                     + euler_fields(1, split=(3, 13), inert=(2, 7))), False,
     (12, [(2, 13), (3, 7)])),
    ("far", lambda: (euler_fields(2, split=(5,), inert=(2, 3, 7))
                     + euler_fields(4, inert=(2, 3, 5, 7, 11, 13, 17, 19))), True,
     (312, [(5, 79)])),
    ("2 splits all", lambda: euler_fields(6, split=(2,)), False, (2, [(2, 3)])),
    ("2 splits all", lambda: euler_fields(6, split=(2,)), True, (12, [(2, 13)])),
]


@pytest.mark.parametrize("case,fields,torsion,optimum", WHEEL_PAIRS,
                         ids=[f"{c[0]}-torsion={c[2]}" for c in WHEEL_PAIRS])
def test_streamed_pairs_match_naive_oracle(case, fields, torsion, optimum, monkeypatch):
    ds = fields()
    factor, sets, n_below = want = naive_minimal_sets(ds, torsion)
    assert (factor, sets) == optimum
    cards = range(2, max_ram_cardinality(factor + 1) + 1, 2)
    assert n_below == sum(len(naive_prime_sets(factor, c)) for c in cards)
    if case == "far":
        assert sets[0][1] - 1 >= (1 << factor.bit_length()) // 8
    # each wheel's modulus stays within the longest window it has scanned,
    # and its residues within one step of _BATCH_ROWS candidates
    least = search._PairWheel.least
    longest, sizes = {}, []

    def spy_least(wheel, a, b):
        q = least(wheel, a, b)
        longest[wheel] = max(longest.get(wheel, 0), b - a)
        sizes.append((wheel.modulus, longest[wheel], len(wheel.residues)))
        return q

    monkeypatch.setattr(search._PairWheel, "least", spy_least)
    for batch_rows in STEP_ROWS:
        monkeypatch.setattr(search, "_BATCH_ROWS", batch_rows)
        sizes.clear()
        assert _minimal_sets(ds, torsion) == want, batch_rows
        assert sizes and all(m <= w and r <= batch_rows for m, w, r in sizes), batch_rows


def test_surface_search_holds_only_the_primes_below_hi_over_8(monkeypatch):
    # at l=3.5 every prime the masks hold has p - 1 < h/8, h the running
    # limit of the range when it is held (the caller's hi: the range's, or
    # best + 1 once a set of six or more passes), and no segment sieved
    # spans more than 2 * _SEGMENT integers; a small segment makes the
    # holds take many
    discs = [f.disc for f in fields_with_regulator_below(3.5)]
    want = _minimal_sets(discs, False)
    held, spans, grown = [], [], []
    hold, sieve = _MaskMatrix.hold, search._accel.prime_segments

    def spy_hold(self, c):
        caller = inspect.currentframe().f_back
        h = caller.f_locals["hi"]
        hold(self, c)
        held.append((int(self.facs[-1]) + 1 if self.n else 0, h))
        if caller.f_code.co_name == "_sweep_sets":
            grown.append(((self.facs + 1).tolist(), h))

    def spy_sieve(lo, hi):
        for qs in sieve(lo, hi):
            spans.append(int(qs[-1] - qs[0]) + 1)
            yield qs

    monkeypatch.setattr(_MaskMatrix, "hold", spy_hold)
    monkeypatch.setattr(search._accel, "prime_segments", spy_sieve)
    monkeypatch.setattr(search._accel, "_SEGMENT", 1 << 6)
    assert _minimal_sets(discs, False) == want
    assert want[0] > 1 << 14 and len(held) > 10
    assert all(p - 1 < h / 8 for p, h in held)
    assert max(spans) <= 1 << 7 and len(spans) > 50
    # the 4-sets and the pairs then find every prime with 8(p - 1) < h held
    # after the sweep's hold
    primes = sieve_primes(want[0] // 4)
    assert len(grown) > 10
    for got, h in grown:
        assert got == [p for p in primes if 8 * (p - 1) < h], h


def test_surface_search_sieves_no_prime_past_hi_over_8(monkeypatch):
    # the pairs past the held primes are found by the wheels and counted by
    # pi(x), so no call of the sieve reaches past hi/8 of the last range
    calls = []
    sieve = search._accel.prime_segments

    def spy(lo, hi):
        calls.append(hi)
        return sieve(lo, hi)

    monkeypatch.setattr(search._accel, "prime_segments", spy)
    res = minimal_algebra_2d(3.5)
    assert (res.factor, res.tested_below_optimum) == (127_512, 63_757)
    last_hi = 1 << res.factor.bit_length()
    assert len(calls) > 10 and max(calls) <= last_hi // 8 + 1


# every v <= sqrt(n) and every floor(n/k) and floor(n/k) + 1
PI_NS = [*range(201), *(2 ** k - 1 for k in range(8, 21)), 997, 7919, 65_537, 1_000_003]


def test_prime_pi_matches_the_oracle_sieve():
    primes = sieve_primes(max(PI_NS) + 1)
    for n in PI_NS:
        pi = search._prime_pi(n)
        r = math.isqrt(n)
        values = {v for k in range(1, r + 1) for v in (n // k, n // k + 1)}
        values |= set(range(r + 1)) | {n // (r + 1) + 1}
        for v in sorted(values):
            assert pi(v) == bisect.bisect_right(primes, v), (n, v)


def brute_least_pair_q(ds, torsion, p, a, b):
    """The least prime q in (a, b] that splits every Q(sqrt d) in which p
    does not split and, with torsion, meets q = 1 mod 4 and q = 1 mod 3
    where p does not."""
    need = [d for d in ds if brute_splitting_q(d, p) != "split"]
    mods = [m for m in ((4, 3) if torsion else ()) if p % m != 1]
    for q in sieve_primes(b):
        if q > a and all(q % m == 1 for m in mods) and all(
                brute_splitting_q(d, q) == "split" for d in need):
            return q
    return None


@pytest.mark.parametrize("torsion", [False, True])
def test_pair_wheel_finds_the_least_splitting_prime(torsion, monkeypatch):
    # six fields with periods 5 ... 28, and windows that grow along a ladder
    # as the search's do, so the same wheel folds in more tables as it goes;
    # some windows hold no pass
    ds = [2, 3, 5, 6, 7, 13]
    discs = [d if d % 4 == 1 else 4 * d for d in ds]
    windows = [(0, 2), (2, 10), (10, 40), (40, 100), (100, 400), (400, 460),
               (460, 1600), (1600, 4000)]
    # after each window, the modulus stays within the longest window scanned
    # and the residues within one step of _BATCH_ROWS candidates
    for batch_rows in STEP_ROWS:
        monkeypatch.setattr(search, "_BATCH_ROWS", batch_rows)
        masks = _MaskMatrix(discs, torsion)
        for p in search._PAIR_FIRSTS:
            wheel = search._PairWheel(masks, p)
            found, longest = [], 0

            def check(a, b):
                nonlocal longest
                want = brute_least_pair_q(ds, torsion, p, a, b)
                assert wheel.least(a, b) == want, (batch_rows, p, a, b)
                longest = max(longest, b - a)
                assert wheel.modulus <= longest, (batch_rows, p, a, b)
                assert len(wheel.residues) <= batch_rows, (batch_rows, p, a, b)
                return want

            for a, b in windows:
                want = check(a, b)
                found += [want] if want else []
            # a window opens past its lower end, even where that end passes
            for a in found:
                check(a, a + 600)


def test_sweep_hands_no_dead_batch_to_first_passes(monkeypatch):
    # a prefix whose slices all stay below lo, because even its dearest
    # completion does, is skipped before it reaches first_passes; the
    # slices come in few calls, so the test counts the slices handed over
    live, slices = [], []
    first_passes = _IdealPool.first_passes

    def spy(self, need, j0s, j1s):
        live.append(bool((j1s > j0s).any()))
        slices.append(len(need))
        return first_passes(self, need, j0s, j1s)

    monkeypatch.setattr(_IdealPool, "first_passes", spy)
    res = valid_algebra_3d(2.0, pool_norm_bound=100)
    assert (res.factor, res.tested_below_optimum) == (536_739_840, 110_850)
    assert sum(slices) > 1000 and all(live)


def test_sweep_hands_first_passes_one_chunk_at_a_time(monkeypatch):
    # every call carries at most _BATCH_ROWS rows, or one longer slice,
    # over Q and over Q(i), while the answers stay those of the default
    discs = [f.disc for f in fields_with_regulator_below(2.5)]
    want_q, want_qi = _minimal_sets(discs, False), valid_algebra_3d(1.0, 30)
    calls = []

    def spy(first_passes):
        def call(self, need, j0s, j1s):
            calls.append((len(need), int((j1s - j0s).sum())))
            return first_passes(self, need, j0s, j1s)
        return call

    for cls in (_MaskMatrix, _IdealPool):
        monkeypatch.setattr(cls, "first_passes", spy(cls.first_passes))
    for batch_rows in (3, 500):
        monkeypatch.setattr(search, "_BATCH_ROWS", batch_rows)
        calls.clear()
        assert _minimal_sets(discs, False) == want_q, batch_rows
        res = valid_algebra_3d(1.0, 30)
        assert (res.factor, res.sets, res.tested_below_optimum) == \
            (want_qi.factor, want_qi.sets, want_qi.tested_below_optimum), batch_rows
        assert len(calls) > 10, batch_rows
        assert all(n == 1 or rows <= batch_rows for n, rows in calls), batch_rows
        assert any(n > 1 for n, _ in calls), batch_rows
