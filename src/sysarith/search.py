"""Minimal-coarea searches for quaternion algebras with prescribed systole bound.

The surface search lists the real quadratic fields whose regulator falls
below the target and then sweeps the area-factor ranges [2, 4), [4, 8), ...
in order.  The first range holding a passing set yields the optimum with
all its ties.  A set of four or more primes has every factor below hi/8 of
its range [lo, hi), as does a pair {p, q} with p >= 11; so the masks hold
every prime whose factor is below hi/8, and the pairs past them are found
apart.  A set of six or more reads only primes below hi/480, so the masks
sieve and hold the primes up to hi/8 after those sets have run and lowered
hi to their best.  The masks are built only as far as the sweep reads them,
and both kinds of row are read from the prime discriminants dividing the
fields' discriminants, not from a table per field: full rows for the small
primes that open a set, one Legendre row per prime discriminant, and for
every held prime a single word 0 holding the 64 fields that the fewest
small primes split, read from Legendre wheels: one residue per group of the
odd primes and the 2-parts that divide those fields' discriminants.
The sets of one size are walked a member at a time, all prefixes at once;
the last primes of a chunk of them are filtered on word 0, each slice of
at least _IN_PLACE_ROWS rows read in place and the shorter ones in one
gather, and the few rows that pass are re-checked on the character tables
of the fields and torsion bits that the rest of the set leaves open.  The
pairs {p, q} with p in 2, 3, 5, 7 and q - 1 >= hi/8 are not sieved: a wheel
over the tables that p leaves open walks the q that could split them, the
same table test filters them, and is_prime settles the first survivor, p's
least pair up to the running optimum.  _sets_below then counts the sets
below the optimum, from the optimum alone, by the sweep's prefix walk.

The exact cover over Q and the 3-manifold search over Q(i) run the same
sweep, on split rows of uint64 words.  Over Q(i) it ranges over the even
subsets of a pool of prime ideals of bounded norm, whose split rows are
read from Legendre symbols at the delta columns of the extension walk,
and checked at zero residues against its column of generator products;
the result is least over the
pool and certified, and best-effort because an ideal outside the pool
could do better.  The search stops with NoCandidateError once the ranges
pass the product of the whole pool, or the int64 limit of the sweep.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import (
    InadmissibleAlgebraError,
    InputError,
    NoCandidateError,
    SysarithError,
    check_int,
    check_real,
)
from .gaussian import (
    SPLIT,
    _SPLIT_ROWS,
    GaussianInt,
    GaussianPrimeIdeal,
    GaussianQuadExt,
    _ext_at,
    _exts_and_columns,
    _ideal_key,
    _ideals_above,
    _walk_columns,
    gaussian_primes_up_to_norm,
    splitting_in_ext,
)
from .quaternion import algebra_q, algebra_qi
from .real_quadratic import (
    fields_with_regulator_below,
    is_prime,
    splitting_type_q,
)
from .volume import volume_qi


# ---------------------------------------------------------------------------
# obstruction masks
#
# Bit f of a prime's row, in uint64 word f // 64, is set iff the prime
# splits in field f; a set of primes obstructs every field iff the OR of
# its rows covers all field bits.  With the torsion filter on, two extra
# virtual bits (p = 1 mod 4 and p = 1 mod 3) must be covered as well.  Over
# Q(i) the rows are those of prime ideals, and their bits are extensions.

_WORD0_RANK_BOUND = 1 << 10  # word 0 holds the fields the fewest primes below this split
# rows, and need words, per chunk of the sweep and per vectorized step; a
# longer slice is read in place, in steps of this many rows
_BATCH_ROWS = 1 << 16
# a slice of at least this many rows is read in place, at about 1.8 ns a row
# and a few us a slice, where a gather through index arrays costs about
# 12.5 ns a row (l = 5.0, 2-vCPU VM); on the surface search at l = 4.75,
# 256 and 1024 saved 15 and 11 % of the time, 64 and 4096 nothing
_IN_PLACE_ROWS = 256
# the torsion bits as characters: quaternion.TORSION_Q's p = 1 mod 4 and
# p = 1 mod 3 are chi_-4(n) = 1 and chi_-3(n) = 1, for every integer n
_TORSION_DISCS = [-4, -3]


def _full(bits: int) -> np.ndarray:
    """The words of the row with bits [0, bits) set: the target of a sweep."""
    return np.frombuffer(((1 << bits) - 1).to_bytes(8 * max(1, -(-bits // 64)), "little"), "<u8")


def _grow(buf: np.ndarray, n: int, extra: int) -> np.ndarray:
    """buf, or a copy of its first n entries with room for n + extra; the
    capacity at least doubles, so appending costs O(1) per entry."""
    if n + extra <= len(buf):
        return buf
    out = np.empty(max(n + extra, 2 * len(buf)), dtype=buf.dtype)
    out[:n] = buf[:n]
    return out


class _MaskMatrix:
    """Split masks for every prime p <= held, built only as far as the
    sweep reads them.  `hold(c)` sieves the primes up to c and adds them:
    the surface search holds every prime whose factor is below hi/8 of its
    range here, and finds the pairs past them apart (_sweep_pairs).

    Bits are ordered so that word 0 holds the 64 fields that the fewest
    small primes split; the other fields follow, then the torsion bits,
    the characters of -4 and -3.  `discs` lists their discriminants and
    `tables` their character tables in that order; a bit is set where its
    table reads 1, and `passing` is the one test of those bits that reads
    the tables themselves.  Every held prime gets its word 0 (`_w0`), read
    from the Legendre wheels of word 0's discriminants
    (`_accel.legendre_wheels`), and stored next to its factor p - 1
    (`facs`), the one array the sweep searches; the buffers grow
    geometrically.  Full rows are built from the discriminants
    (`_accel.build_split_masks`) only for the prime indices [0, n) that
    `prefix_rows(n)` asks for: the sweep's prefixes.  `first_passes` filters the last primes of a chunk of
    sets on word 0 alone, reading each slice of at least _IN_PLACE_ROWS
    rows in place and gathering the shorter ones, and the few survivors
    are re-checked by `passing` on the bits above word 0 that their prefix
    leaves open.
    """

    def __init__(self, discs: list[int], torsion: bool):
        n = len(discs)
        discs = discs + (_TORSION_DISCS if torsion else [])
        tables = _accel.character_tables(discs)
        small = _accel.primes_up_to(_WORD0_RANK_BOUND)
        split = [int((chi[small % len(chi)] == 1).sum()) for chi in tables[:n]]
        order = [*np.argsort(split, kind="stable").tolist(), *range(n, len(discs))]
        self.discs = [discs[f] for f in order]
        self.tables = [tables[f] for f in order]
        self._wheels = _accel.legendre_wheels(self.discs[:64])
        self.target = _full(len(self.tables))
        self.held = self.n = 0
        self._facs = np.empty(0, dtype=np.int64)
        self._w0 = np.empty(0, dtype=np.uint64)
        self._prefix = np.empty((0, len(self.target)), dtype=np.uint64)

    @property
    def facs(self) -> np.ndarray:
        return self._facs[:self.n]

    def hold(self, c: int) -> None:
        """Sieve the primes in (held, c] and add them, with their word 0."""
        for primes in _accel.prime_segments(self.held + 1, c + 1):
            n, m = self.n, len(primes)
            self._facs = _grow(self._facs, n, m)
            self._facs[n:n + m] = primes - 1
            self._w0 = _grow(self._w0, n, m)
            self._w0[n:n + m] = _accel.wheel_words(primes, self._wheels)
            self.n = n + m
        self.held = max(self.held, c)

    def prefix_rows(self, n_rows: int) -> np.ndarray:
        """The full rows of at least the prime indices [0, n_rows), as words.

        The rows built grow geometrically, so a sweep whose prefixes reach
        a little further each range builds them in few calls.
        """
        have = len(self._prefix)
        if n_rows > have:
            want = min(self.n, max(n_rows, 2 * have))
            rows = np.zeros((want - have, len(self.target)), dtype=np.uint64)
            built = _accel.build_split_masks(self._facs[have:want] + 1, self.discs)
            rows[:, :built.shape[1]] = built  # no field gives no word: one zero word
            self._prefix = np.concatenate([self._prefix, rows])
        return self._prefix

    def open_bits(self, need: np.ndarray):
        """The bits above word 0 set in `need`, lowest first, read lazily."""
        rest = int.from_bytes(need[1:].astype("<u8").tobytes(), "little")
        while rest:
            low = rest & -rest
            yield low.bit_length() + 63
            rest ^= low

    def passing(self, n: np.ndarray, bits) -> np.ndarray:
        """The entries of n, in order, at which every table of `bits` reads
        1; one table at a time, stopping once no entry is left."""
        for bit in bits:
            if not len(n):
                break
            table = self.tables[bit]
            n = n[table[n % len(table)] == 1]
        return n

    def _recheck(self, need: np.ndarray, survivors: np.ndarray) -> int | None:
        """The first word-0 survivor whose row also sets need's bits above word 0."""
        if not len(survivors):
            return None
        p = self.passing(self._facs[survivors] + 1, self.open_bits(need))
        return int(self.facs.searchsorted(p[0] - 1)) if len(p) else None

    def _first_pass(self, need: np.ndarray, j0: int, j1: int) -> int | None:
        """The first pass of one slice, read in place in steps."""
        need0 = need[0]
        for s0 in range(j0, j1, _BATCH_ROWS):
            hits = ((self._w0[s0:min(j1, s0 + _BATCH_ROWS)] & need0) == need0).nonzero()[0]
            j = self._recheck(need, hits + s0)
            if j is not None:
                return j
        return None

    def first_passes(self, need: np.ndarray, j0s: np.ndarray,
                     j1s: np.ndarray) -> list[int | None]:
        """For each slice k, the least j in [j0s[k], j1s[k]) whose row sets
        every bit of need[k], the bits its prefix leaves open, or None.

        Word 0 filters, and the survivors are re-checked on the bits above
        word 0 that their prefix leaves open.  A slice of at least
        _IN_PLACE_ROWS rows, or of more than _BATCH_ROWS, is read in place
        by `_first_pass`; one gather tests the rows of all the shorter
        slices, each against its own prefix.
        """
        lens = j1s - j0s
        long = (lens >= _IN_PLACE_ROWS) | (lens > _BATCH_ROWS)
        out: list[int | None] = [None] * len(need)
        for k in long.nonzero()[0].tolist():
            out[k] = self._first_pass(need[k], int(j0s[k]), int(j1s[k]))
        short = (~long).nonzero()[0]
        owner, idx = _accel.runs(j0s[short], j1s[short])
        need0 = need[short, 0][owner]
        hits = ((self._w0[idx] & need0) == need0).nonzero()[0]
        who = short[owner[hits]]
        for s in sorted(set(who.tolist())):
            out[s] = self._recheck(need[s], idx[hits[who == s]])
        return out


class _IdealPool:
    """Split rows of a Gaussian prime-ideal pool sorted by norm: `facs` holds
    N - 1 of each ideal, `rows` its words, tested a word at a time: the pool
    is small and not ranked by rarity, so a word-0 filter would not pay."""

    def __init__(self, pool: list[GaussianPrimeIdeal], cols):
        self.facs = np.array([P.norm - 1 for P in pool], dtype=np.int64)
        self.rows = _split_rows_qi(pool, cols)
        self.target = _full(cols.shape[1])

    def hold(self, c: int) -> None:
        """The pool holds every ideal from the start."""

    def prefix_rows(self, n_rows: int) -> np.ndarray:
        return self.rows

    def first_passes(self, need: np.ndarray, j0s: np.ndarray,
                     j1s: np.ndarray) -> list[int | None]:
        owner, idx = _accel.runs(j0s, j1s)
        for w in range(need.shape[1]):  # drop the rows that miss a bit of word w
            keep = (need[owner, w] & ~self.rows[idx, w]) == 0
            owner, idx = owner[keep], idx[keep]
            if not len(idx):
                break
        found = dict(zip(owner[::-1].tolist(), idx[::-1].tolist()))  # a slice's least j last
        return [found.get(k) for k in range(len(need))]


def _split_rows_qi(pool, cols) -> np.ndarray:
    """Bit e of row i is set iff pool[i] splits in extension e, in uint64
    words, one extension per column of cols.

    The first _SPLIT_ROWS rows of cols are the extension walk's (gaussian._GENS):
    each delta = a + bi as int64 arrays a and b, where (1+i) splits, and
    the product ga + gb*i of the odd generators.  An odd ideal splits iff
    delta is a nonzero square mod it: for a degree-1 ideal of norm p with
    i = r mod it, iff a + b*r is a square mod p; for an inert (q), iff
    a^2 + b^2 is a square mod q.  Each ideal reads the symbols of its
    residues from one Legendre table over its residue field, or by Euler's
    criterion once that field has _accel._TABLE_BELOW elements or more, and
    its bits are packed into its row's bytes; (1+i) reads the third column.
    A zero residue is allowed only where the ideal also divides ga + gb*i:
    the residues of the generator column at the zeros are checked at once,
    and the first other one in (ideal, extension) order raises
    SysarithError.  On the walk's own columns this check cannot fire, since
    delta is ga + gb*i times a unit and a power of 1+i, both units at an
    odd ideal: it holds the columns to themselves, and the tests that
    compare the walk's columns with ones read off the objects' gens
    (oracles.ext_columns) hold the objects to the columns.  No extensions
    give one zero word.
    """
    a, b, two_split, ga, gb = cols = cols[:_SPLIT_ROWS]
    m = max(-int(cols.min(initial=0)), int(cols.max(initial=0)))  # no copy of cols
    rows = np.zeros((len(pool), len(_full(cols.shape[1]))), dtype="<u8")
    q, leg = 0, None
    for i, P in enumerate(pool):
        if P.norm % 2 == 0:
            split = two_split == 1
        else:
            if P.kind == SPLIT:
                p = P.norm
                r = -P.gen.a * pow(P.gen.b, -1, p) % p
            else:
                p, r = P.gen.a, None
            res = _residues(a, b, r, p, m)
            if p != q:
                q, leg = p, _accel._symbol(p) if p < _accel._TABLE_BELOW else None
            sym = _accel.euler_symbols(res, p) if leg is None else leg[res]
            if not sym.all():
                k = np.flatnonzero(sym == 0)
                bad = k[_residues(ga[k], gb[k], r, p, m) != 0]
                if len(bad):
                    delta = GaussianInt(int(a[bad[0]]), int(b[bad[0]]))
                    raise SysarithError(f"residue symbol of {delta} at unramified {P.gen} is 0")
            split = sym == 1
        packed = np.packbits(split, bitorder="little")
        rows.view(np.uint8)[i, :len(packed)] = packed
    return rows


def _residues(x: np.ndarray, y: np.ndarray, r: int | None, p: int, m: int) -> np.ndarray:
    """(x + y*r) % p for 0 <= r < p, or (x^2 + y^2) % p where r is None,
    exactly, for int64 arrays with |x|, |y| <= m: in int64 while the terms
    stay within it, in Python ints past that."""
    if (m * p if r is not None else 2 * m * m) > _INT64_MAX:
        x, y = x.astype(object), y.astype(object)
    return (x + y * r if r is not None else x * x + y * y) % p


# ---------------------------------------------------------------------------
# the range sweep
#
# Factor ranges [2^k, 2^(k+1)) are processed in order; within a range, the
# sets of each cardinality are enumerated one member at a time, all prefixes
# of one length at once as arrays, and the last member is tested as one
# slice of the sorted factors, the slices in chunks of at most _BATCH_ROWS
# rows.  The first range containing a passing set holds the optimum and all
# its ties; earlier ranges were exhausted without a pass.  The surface
# search, the exact cover over Q and the Q(i) search all run this sweep,
# _sweep_sets over a _MaskMatrix or an _IdealPool, and over Q wheels find the
# pairs past hi/8; _sets_below counts the sets below the optimum once it is
# known, by the same prefix walk (_prefixes).

_INT64_MAX = (1 << 63) - 1  # facs and the slice products are int64: hi must not pass this
_PAIR_FIRSTS = (2, 3, 5, 7)  # the p with p - 1 < 8 = 1*2*4, the only ones before a q - 1 >= hi/8


def _last_q(x, m):
    """The largest q with m(q - 1) < x."""
    return (x - 1) // m + 1


def _top_card(facs, hi) -> int:
    """The largest even k whose k smallest factors multiply below hi, or 0."""
    top, prod = 0, 1
    while top + 2 <= len(facs):
        prod *= int(facs[top]) * int(facs[top + 1])
        if prod >= hi:
            break
        top += 2
    return top


def _sweep_sets(masks, lo, hi):
    """Test every set with factor in [lo, hi) whose members `masks` holds:
    (best, winners).  best is the least passing factor (None if no set
    passes), winners the index tuples of every set with factor best.
    `masks` holds its factors ascending in the int64 array `facs`, and hi
    is at most 2^63 - 1.  Once, before the first cardinality below six
    (or at the end if there is none), the sweep calls
    `masks.hold(_last_q(hi, 8))` with the running limit hi: the surface
    masks then sieve and add the primes below hi/8 that the 4-sets and the
    pairs read, past those the sets of six or more read; the Q(i) pool
    holds every ideal from the start.

    The cardinalities run down from _top_card, and each pass lowers hi to
    best + 1 for the next (_sweep_card); a tie across cardinalities is kept.
    """
    top = _top_card(masks.facs, hi)
    best, winners = None, []
    for card in range(top, 1, -2):
        if card == min(top, 4):
            masks.hold(_last_q(hi, 8))
        found, sets = _sweep_card(masks, card, lo, hi)
        if found is not None:
            best, winners, hi = found, (winners if found == best else []) + sets, found + 1
    if not top:
        masks.hold(_last_q(hi, 8))
    return best, winners


def _prefixes(facs, card, lo, hi):
    """The prefixes of card - 1 members, card <= _top_card(facs, hi), that
    some later member can complete to a set with factor in [lo, hi):
    (prods, starts, members), their products, the least index of a last
    member and the member index arrays, one per position.

    The walk adds one member to all prefixes at once.  A prefix member has
    a factor below sqrt(hi), so the walk reads the factors up to there and
    card more.  A member i with m members left, itself included, needs the
    m factors from i on to multiply below hi, and the m - 1 dearest factors
    a member can have, dear[m - 1], to reach lo: one searchsorted each.
    """
    small = facs[:int(facs.searchsorted(math.isqrt(hi - 1), side="right")) + card].tolist()
    bound = (hi - 1) // math.prod(small[:card - 1])
    dear = [1]  # dear[r]: the product of the r largest factors a member can have
    for f in reversed(facs[:facs.searchsorted(bound, side="right")][1 - card:].tolist()):
        dear.append(dear[-1] * f)
    spans = [small]  # spans[m - 1][i]: the product of the m factors from i on, capped at hi
    for m in range(1, card):
        spans.append([min(a * f, hi) for a, f in zip(spans[-1], small[m:])])
    prods, starts = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    members = []
    for m in range(card, 1, -1):
        least = -(-lo // dear[m - 1])  # ceil(lo / dear), then ceil(that / prods) in int64
        k, i = _accel.runs(np.maximum(starts, facs.searchsorted(-(-least // prods))),
                           np.searchsorted(spans[m - 1], (hi - 1) // prods, "right"))
        prods, members, starts = prods[k] * facs[i], [c[k] for c in members] + [i], i + 1
    return prods, starts, members


def _sweep_card(masks, card, lo, hi):
    """(best, winners) of _sweep_sets over the sets of `card` members.

    The last member of a prefix from _prefixes runs over a slice [j0, j1)
    of factors in [lo, hi).  The slices go in order to `masks.first_passes`
    in chunks of at most _BATCH_ROWS rows and need words, or one longer
    slice alone, with `need`, the bits their prefixes leave open; over Q,
    a slice of at least _IN_PLACE_ROWS rows is read in place there.  A hit
    lowers hi to best + 1, which cuts the later slices; within a chunk a hit
    above the new optimum is dropped.  A slice's first pass is its least
    factor, and its later passes of that factor are ties.
    """
    facs = masks.facs
    prods, starts, members = _prefixes(facs, card, lo, hi)
    j0s = np.maximum(facs.searchsorted((lo - 1) // prods + 1), starts)
    rows = masks.prefix_rows(int(members[-1].max(initial=-1)) + 1)  # members[-1]: the largest
    best, winners, cut = None, [], None
    while True:
        if cut != hi:  # first, and after a hit: cut the slices at hi, drop the empty
            j1s = facs.searchsorted((hi - 1) // prods + 1)
            live = j1s > j0s
            prods, j0s, j1s = prods[live], j0s[live], j1s[live]
            members = [c[live] for c in members]
            ends, cut = np.cumsum(j1s - j0s), hi
        if not len(prods):
            return best, winners
        e = int(ends.searchsorted(ends[0] - j1s[0] + j0s[0] + _BATCH_ROWS, "right"))
        e = max(min(e, _BATCH_ROWS // rows.shape[1]), 1)
        need = rows[members[0][:e]]
        for c in members[1:]:
            need |= rows[c[:e]]
        need ^= masks.target  # no row sets a bit past the target
        for k, j in enumerate(masks.first_passes(need, j0s[:e], j1s[:e])):
            while j is not None:
                factor = int(prods[k]) * int(facs[j])
                if best is not None and factor > best:
                    break
                if best is None or factor < best:
                    best, winners, hi = factor, [], factor + 1
                winners.append((*(int(c[k]) for c in members), j))
                tie = min(int(facs.searchsorted(facs[j], side="right")), int(j1s[k]))
                j, = (masks.first_passes(need[k:k + 1], np.array([j + 1]), np.array([tie]))
                      if j + 1 < tie else (None,))
        prods, j0s, j1s, ends = prods[e:], j0s[e:], j1s[e:], ends[e:]
        members = [c[e:] for c in members]


def _sets_below(facs, best, count_le) -> int:
    """The number of even sets of two or more members with factor below best,
    from the factors `facs` ascending and count_le(v), the number of members
    of factor at most each v: a prefix of _prefixes(facs, card, 1, best) has
    count_le((best - 1) // prod) - start last members.  A prefix member i
    reads f_(i+1), so `facs` holds every factor up to the first past
    sqrt(best - 1)."""
    n = 0
    for card in range(_top_card(facs, best), 1, -2):
        prods, starts, _ = _prefixes(facs, card, 1, best)
        n += int((count_le((best - 1) // prods) - starts).sum())
    return n


def _prime_pi(n):
    """pi(v), the number of primes <= v, for every v <= sqrt(n) and every
    v = floor(n/k) or floor(n/k) + 1 with k >= 1.

    Lucy's table holds S(v) at every v = floor(n/k) (the Legendre sum of
    Lagarias, Miller & Odlyzko, Math. Comp. 44, 1985): S(v) starts at
    v - 1, and each prime p <= sqrt(n) in turn takes S(v // p) - S(p - 1),
    the numbers whose least prime factor is p, from every S(v) with
    v >= p^2.  `small[v]` holds v <= sqrt(n) and `large[k]` holds n // k,
    one numpy step per prime and array; a v one past a table value adds
    is_prime(v).
    """
    r = math.isqrt(n)
    small = np.arange(-1, r, dtype=np.int64)
    small[0] = 0
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = n // np.arange(1, r + 1) - 1
    for p in _accel.primes_up_to(r).tolist():
        sp = small[p - 1]
        kmax = min(r, n // (p * p))
        kb = min(kmax, r // p)  # n // (kp) is in large for k <= kb, in small past it
        large[1:kb + 1] -= large[p:kb * p + 1:p] - sp
        large[kb + 1:kmax + 1] -= small[n // (np.arange(kb + 1, kmax + 1) * p)] - sp
        if p * p <= r:
            small[p * p:] -= small[np.arange(p * p, r + 1) // p] - sp

    def pi(v):
        if v <= r:
            return int(small[v])
        k = n // v
        if k and n // k == v:
            return int(large[k])
        return pi(v - 1) + is_prime(v)

    return pi


def _sets_below_q(masks, best) -> int:
    """_sets_below over Q.  Its walk reads the primes to the first p with
    p - 1 > isqrt(best - 1), which Bertrand's postulate puts at most at
    2 isqrt(best) + 2, so they are sieved to there (no fixed margin is safe:
    the prime gap after 31,397 is 72).  count_le(v) = pi(v + 1) reads
    masks.facs up to masks.held >= best/8 and one _prime_pi past it."""
    pi = _prime_pi(best - 1)

    def count_le(v):
        n = masks.facs.searchsorted(v, side="right")
        far = v >= masks.held
        n[far] = [pi(x + 1) for x in v[far].tolist()]
        return n

    return _sets_below(_accel.primes_up_to(2 * math.isqrt(best) + 2) - 1, best, count_le)


class _PairWheel:
    """The least prime q in a window that splits every field, and meets
    every torsion bit, that a small prime p leaves open: the q of p's
    passing pairs {p, q}.

    The open tables with the smallest periods fold into a wheel (Pritchard,
    Acta Inf. 17, 1982): the residues mod the lcm M of their periods at
    which each of them reads 1.  `least(a, b)` walks n = r + kM upward
    through (a, b] in steps of at most _BATCH_ROWS candidates, filters each
    step with masks.passing on the other open tables in rarity order, and
    returns the first survivor that is_prime accepts.  The wheel is built
    once per search and grows with the windows: before a scan it folds in
    the next tables while M stays within the window's length and a fold
    within _BATCH_ROWS candidates.
    """

    def __init__(self, masks, p: int):
        self.masks = masks
        self.rest = [bit for bit, t in enumerate(masks.tables) if t[p % len(t)] != 1]
        self.queue = sorted(self.rest, key=lambda bit: len(masks.tables[bit]))
        self.modulus = 1
        self.residues = np.zeros(1, dtype=np.int64)

    def _fold(self, limit: int) -> None:
        while self.queue:
            bit = self.queue[0]
            m = math.lcm(self.modulus, len(self.masks.tables[bit]))
            if m > limit or len(self.residues) * (m // self.modulus) > _BATCH_ROWS:
                return
            self.residues = self.masks.passing(
                (np.arange(0, m, self.modulus)[:, None] + self.residues).ravel(), [bit])
            self.modulus = m
            self.rest.remove(self.queue.pop(0))

    def least(self, a: int, b: int) -> int | None:
        self._fold(b - a)
        m, res = self.modulus, self.residues
        if not len(res):
            return None
        step = max(1, _BATCH_ROWS // len(res))
        k1 = b // m + 1
        for k in range((a + 1) // m, k1, step):
            n = ((np.arange(k, min(k + step, k1)) * m)[:, None] + res).ravel()
            for q in self.masks.passing(n[(n > a) & (n <= b)], self.rest).tolist():
                if is_prime(q):
                    return q
        return None


def _sweep_pairs(wheels, lo, hi, cut, best):
    """The pairs {p, q} with p in _PAIR_FIRSTS, q > cut (the primes the
    masks hold end at cut) and factor (p - 1)(q - 1) in [lo, hi): (best,
    pairs).  best, the least passing factor of the range so far or None,
    goes out lowered by the pairs, with the pairs of factor best.

    Each p's window of q runs from past the largest of top(p, lo), cut and
    p to top(p, hi), with top(p, x) = _last_q(x, p - 1) and hi lowered to
    best + 1 by every pass, and wheels[p] finds its least passing q.
    """
    pairs = []
    for p, wheel in wheels.items():
        if best is not None:
            hi = best + 1
        a, b = max(_last_q(lo, p - 1), cut, p), _last_q(hi, p - 1)
        q = wheel.least(a, b) if a < b else None
        if q is not None:
            factor = (p - 1) * (q - 1)
            if best is None or factor < best:
                best, pairs = factor, []
            pairs.append((p, q))
    return best, pairs


def _minimal_sets(discs: list[int], torsion: bool):
    """(factor, sets, n_below) for the least-factor even prime sets in which
    every disc has a split prime (and, with `torsion`, some p = 1 mod 4 and
    some p = 1 mod 3); sets ascending, n_below the even sets of smaller factor.

    The masks own the primes: masks.hold(c) sieves every prime up to c
    that they do not hold yet, and masks.held is the largest c so far.  A
    range [lo, hi) with hi = 2lo first holds the primes its sets of six or
    more read, those with 480(p - 1) < hi (and 2, 3, 5, 7 once hi/8 passes
    them, so that the sweep sees the 4-sets); _sweep_sets then holds the
    primes with 8(p - 1) < hi before its 4-sets, with hi lowered to
    best + 1 by the larger sets.  _sweep_pairs tests the pairs past
    masks.held, and _sets_below counts the sets below the optimum.  The
    loop ends: every field has split primes and a prime = 1 mod 12 meets
    both torsion bits, so some even set passes.
    """
    masks = _MaskMatrix(discs, torsion)
    wheels = {p: _PairWheel(masks, p) for p in _PAIR_FIRSTS}
    lo = 2
    while True:
        hi = 2 * lo
        masks.hold(max(_last_q(hi, 480), min(_last_q(hi, 8), 7)))
        best, winners = _sweep_sets(masks, lo, hi)
        sets = [tuple((masks.facs[list(w)] + 1).tolist()) for w in winners]
        best_pair, pairs = _sweep_pairs(wheels, lo, hi, masks.held, best)
        if best_pair != best:
            best, sets = best_pair, []
        if best is not None:
            return best, sorted(sets + pairs), _sets_below_q(masks, best)
        lo = hi


# ---------------------------------------------------------------------------
# search results

def _member_json(m):
    return m.to_json() if isinstance(m, GaussianPrimeIdeal) else m


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a minimal/valid-algebra search over Q or Q(i)."""

    l: float
    base: str  # "Q" or "Qi"
    factor: int
    sets: tuple
    excluded_fields: tuple
    certificates: tuple  # one dict per set: field -> splitting member
    exhaustive: bool
    best_effort: bool = False
    # the sets below the optimum, all ruled out: even prime sets, or even pool subsets
    tested_below_optimum: int = 0
    volume: float | None = None

    def algebras(self):
        make = algebra_q if self.base == "Q" else algebra_qi
        return [make(s) for s in self.sets]

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "base": self.base,
            "factor_or_volume": self.volume if self.base == "Qi" else self.factor,
            "sets": [[_member_json(m) for m in s] for s in self.sets],
            "excluded_fields": [f.to_json() for f in self.excluded_fields],
            "certificates": [
                [{"field": f.to_json(), "witness": _member_json(w)}
                 for f, w in cert.items()]
                for cert in self.certificates
            ],
            "exhaustive": self.exhaustive,
            "best_effort": self.best_effort,
            "tested_below_optimum": self.tested_below_optimum,
        }


def _certify(members: tuple, fields, splits) -> dict:
    """field -> the first member m of the passing set with splits(field, m),
    for every field; a field without one raises SysarithError."""
    cert = {}
    for f in fields:
        witness = next((m for m in members if splits(f, m)), None)
        if witness is None:
            raise SysarithError(
                f"internal: no member of the set splits in {f}; "
                "the passing set lost its certificate")
        cert[f] = witness
    return cert


# the split tests are looked up at call time, so a test can replace them
def _certify_q(primes: tuple[int, ...], fields) -> dict:
    return _certify(primes, fields, lambda f, p: splitting_type_q(f, p) == "split")


def _certify_qi(ideals: tuple[GaussianPrimeIdeal, ...], exts) -> dict:
    return _certify(ideals, exts, lambda e, P: splitting_in_ext(P, e) == SPLIT)


def minimal_algebra_2d(l: float, require_torsion_free: bool = False) -> SearchResult:
    """All minimal-area-factor admissible prime sets obstructing every field
    with regulator < l (optionally also torsion-free), with certificates.
    """
    check_real(l, "systole bound", 0, strict=True)
    fields = fields_with_regulator_below(l)
    factor, sets, n_below = _minimal_sets(
        [f.disc for f in fields], require_torsion_free)
    certs = tuple(_certify_q(s, fields) for s in sets)
    return SearchResult(
        l=float(l), base="Q", factor=factor, sets=tuple(sets),
        excluded_fields=tuple(fields), certificates=certs,
        exhaustive=True, best_effort=False, tested_below_optimum=n_below)


# ---------------------------------------------------------------------------
# 3-manifold variant over Q(i): least over a bounded ideal pool, certified

def valid_algebra_3d(l: float, pool_norm_bound: int) -> SearchResult:
    """Least-volume admissible sets of prime ideals of norm at most
    pool_norm_bound such that every quadratic extension of Q(i) with
    relative discriminant norm at most e^(2(l+2)) is obstructed.

    The range sweep tests every even subset of the pool below the optimum,
    so the result is least over the pool; it is best-effort because an
    ideal outside the pool could give a smaller volume.  NoCandidateError
    is raised when no even subset passes, and when the least factor would
    need a range past the sweep's int64 limit 2^63 - 1.  An l above about
    6.06 raises InputError: e^(2(l+2)) passes the extension list's cap.
    """
    check_real(l, "systole bound", 0, strict=True)
    check_real(pool_norm_bound, "pool norm bound", 2)
    exts, cols = _exts_and_columns(math.exp(2.0 * (l + 2.0)))
    pool = gaussian_primes_up_to_norm(pool_norm_bound)
    masks = _IdealPool(pool, cols)
    total = math.prod(P.norm - 1 for P in pool)
    lo = 2
    while True:
        best, winners = _sweep_sets(masks, lo, 2 * lo)
        if best is not None:
            break
        lo *= 2
        if lo > total:
            raise NoCandidateError(
                f"no even subset of the {len(pool)} ideals of norm at most "
                f"{pool_norm_bound} obstructs every extension for systole bound {l}")
        if 2 * lo > _INT64_MAX:
            raise NoCandidateError(
                f"no even subset of the {len(pool)} ideals of norm at most "
                f"{pool_norm_bound} with factor below {lo} obstructs every extension "
                f"for systole bound {l}, and the sweep stops at the int64 limit 2^63 - 1")

    sets = sorted((tuple(pool[i] for i in w) for w in winners),
                  key=lambda s: [_ideal_key(P) for P in s])
    certs = tuple(_certify_qi(s, exts) for s in sets)
    return SearchResult(
        l=float(l), base="Qi", factor=best, sets=tuple(sets),
        excluded_fields=tuple(exts), certificates=certs, exhaustive=False, best_effort=True,
        tested_below_optimum=_sets_below(
            masks.facs, best, lambda v: masks.facs.searchsorted(v, side="right")),
        volume=volume_qi(algebra_qi(sets[0])))


# ---------------------------------------------------------------------------
# norm-multiset verification (the tables list ideals only by absolute norm)

@dataclass(frozen=True)
class AssignmentReport:
    ideals: tuple[GaussianPrimeIdeal, ...]
    valid: bool
    failing_ext: GaussianQuadExt | None

    def to_json(self) -> dict:
        return {
            "ideals": [P.to_json() for P in self.ideals],
            "valid": self.valid,
            "failing_ext": None if self.failing_ext is None else self.failing_ext.to_json(),
        }


@dataclass(frozen=True)
class ExclusionReport:
    norms: tuple[int, ...]
    l: float
    valid: bool
    assignments: tuple[AssignmentReport, ...]
    tested_extensions: int

    def to_json(self) -> dict:
        return {
            "norms": list(self.norms),
            "l": self.l,
            "valid": self.valid,
            "assignments": [a.to_json() for a in self.assignments],
            "tested_extensions": self.tested_extensions,
        }


_ASSIGNMENT_CAP = 1 << 16  # verify_exclusion_3d builds a report for each assignment


def _norm_choices(norm: int, multiplicity: int):
    """Concrete prime-ideal options realizing `multiplicity` ideals of `norm`:
    every choice of that many distinct ideals of that norm."""
    p = math.isqrt(norm)
    if p * p != norm or p % 4 != 3:  # not the norm of an inert prime
        p = norm
    ideals = [P for P in _ideals_above(p) if P.norm == norm] if is_prime(p) else []
    if not ideals:
        raise InputError(f"no Gaussian prime ideal has norm {norm}")
    if multiplicity > len(ideals):
        raise InputError(f"norm {norm} admits at most {len(ideals)} prime "
                         f"ideal{'s' if len(ideals) > 1 else ''}")
    return list(itertools.combinations(ideals, multiplicity))


def _norm_options(ram_norm_multiset) -> tuple[list[int], list]:
    """The sorted norms and, per distinct norm ascending, the ideal tuples
    realizing its multiplicity; checks integers, then an even number >= 2,
    then realizability."""
    if not isinstance(ram_norm_multiset, Iterable):
        raise InputError(
            f"ideal norms must be an iterable of integers, got {ram_norm_multiset!r}")
    norms = sorted(check_int(n, "ideal norm", 1) for n in ram_norm_multiset)
    if len(norms) < 2 or len(norms) % 2 != 0:
        raise InadmissibleAlgebraError(
            f"ramification multiset must have even cardinality >= 2, got {norms}")
    return norms, [_norm_choices(n, m) for n, m in sorted(Counter(norms).items())]


def verify_exclusion_3d(ram_norm_multiset, l: float) -> ExclusionReport:
    """Check whether some conjugate assignment of the norm multiset obstructs
    every quadratic extension of Q(i) with relative discriminant norm at most
    e^(2(l+2)), the list quad_exts_with_disc_below returns.

    A loxodromic trace t in Z[i] of length 2*Re arccosh(t/2) < l generates
    Q(i)(sqrt(t^2 - 4)).  Its relative discriminant divides t^2 - 4, whose
    norm is below e^(2(l+2)) because |t| < 2*cosh(l/2), and such t exist
    only for l > 0.96 (t = i is the shortest); so the field is in the list,
    and valid=True shows the systole is at least l.
    The list is much larger than those fields, so valid=False does not show
    the systole is below l: at l=1.0 the norm-17 extension that every
    assignment of (2, 5, 9, 13) leaves open has no geodesic shorter than
    1.466.  As in valid_algebra_3d, an l above about 6.06 raises InputError,
    and so does a multiset with more than 2^16 assignments, before any
    extension or row is built: k distinct split norms give 2^k.
    The rows read the extension walk's columns alone (gaussian._walk_columns),
    and tested_extensions counts them; the only extension built as an
    object is each failing assignment's first one, from its column.
    """
    check_real(l, "systole bound", 0, strict=True)
    norms, options = _norm_options(ram_norm_multiset)
    count = math.prod(len(o) for o in options)
    if count > _ASSIGNMENT_CAP:
        raise InputError(f"norm multiset {norms} has {count} conjugate assignments, "
                         f"more than the {_ASSIGNMENT_CAP} supported")
    cols = _walk_columns(math.exp(2.0 * (l + 2.0)))

    combos = [tuple(sorted((P for group in combo for P in group), key=_ideal_key))
              for combo in itertools.product(*options)]
    union = sorted({P for ideals in combos for P in ideals}, key=_ideal_key)
    rows = _split_rows_qi(union, cols)
    at = {P: i for i, P in enumerate(union)}
    target = _full(cols.shape[1])
    reports = []
    for ideals in combos:
        left = target & ~np.bitwise_or.reduce(rows[[at[P] for P in ideals]], axis=0)
        w = np.flatnonzero(left)  # the lowest open bit is the first failing extension
        low = int(left[w[0]]) if len(w) else 0
        failing = _ext_at(64 * int(w[0]) + (low & -low).bit_length() - 1) if low else None
        reports.append(AssignmentReport(ideals=ideals, valid=not low, failing_ext=failing))
    return ExclusionReport(
        norms=tuple(norms), l=float(l), valid=any(a.valid for a in reports),
        assignments=tuple(reports), tested_extensions=cols.shape[1])
