"""Numeric kernels in numpy: the prime sieve, character tables and packed
split masks.

Only machine-word arithmetic lives here.  Anything needing big integers
(fundamental units, subset products) stays in pure Python elsewhere.

`prime_segments` is the one prime sieve: odd-only and segmented (Bays &
Hudson, BIT 17, 1977), it strikes one segment of odd numbers at a time with
the odd primes up to sqrt(hi), so its scratch is one segment, not hi bytes,
and a sweep over the ranges [2^k, 2^(k+1)) extends the primes it has
without re-sieving from 2.  `primes_up_to` joins its segments.

`character_table` builds the Kronecker character of a fundamental
discriminant as the product of the Legendre tables of the odd primes
dividing it and a character mod 8 for its 2-part (Cohen, A Course in
Computational Algebraic Number Theory, §1.4).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

# There is one kernel path.  bench/child.py records this flag in the
# provenance of every benchmark run, so it stays until that record drops it.
JIT_ENABLED = False


# ---------------------------------------------------------------------------
# the prime sieve

_SEGMENT = 1 << 20  # odd numbers struck per segment of prime_segments


def prime_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes p with lo <= p < hi, ascending, as int64 arrays: one per
    segment of at most 2 * _SEGMENT integers that holds a prime.

    The odd numbers of each segment are struck by the odd primes up to
    s = sqrt(hi - 1), found once per call from the odd numbers 3 ... s,
    which strike themselves: no sieve runs inside another.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return
    if lo == 2:
        yield np.array([2], dtype=np.int64)
    s = math.isqrt(hi - 1)
    composite = np.zeros(max(0, (s - 1) // 2), dtype=np.bool_)  # 3, 5, ..., s
    for q in range(3, math.isqrt(s) + 1, 2):
        if not composite[(q - 3) // 2]:
            composite[(q * q - 3) // 2::q] = True
    base = (3 + 2 * np.flatnonzero(~composite)).tolist()
    for a in range(lo | 1, hi, 2 * _SEGMENT):
        n = min(_SEGMENT, (hi - a + 1) // 2)  # the odd numbers a, a+2, ... < hi
        b = a + 2 * n
        composite = np.zeros(n, dtype=np.bool_)
        for q in base:
            m = q * q
            if m >= b:
                break
            if m < a:
                m = (a + q - 1) // q * q
                if m % 2 == 0:
                    m += q
            composite[(m - a) // 2 :: q] = True
        primes = a + 2 * np.flatnonzero(~composite)
        if len(primes):
            yield primes


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *prime_segments(2, n + 1)])


# ---------------------------------------------------------------------------
# smallest-prime-factor table (factors the discriminants)

def smallest_factor_table(n: int) -> np.ndarray:
    """spf[m] = smallest prime factor of m for 2 <= m <= n; spf[0] = spf[1] = 1.

    The primes p <= sqrt(n) strike their multiples from p * p, largest
    first, so the smallest factor of a composite is written last."""
    spf = np.arange(n + 1, dtype=np.int64)
    spf[:2] = 1
    for p in primes_up_to(math.isqrt(n))[::-1].tolist():
        spf[p * p::p] = p
    return spf


# ---------------------------------------------------------------------------
# Kronecker symbol table for one field, as a periodic character mod |disc|

# the characters of the prime discriminants -4, 8 and -8, over one period
_CHI_M4 = np.array([0, 1, 0, -1], dtype=np.int8)
_CHI_8 = np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)
_CHI_M8 = np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8)


def _legendre_table(q: int) -> np.ndarray:
    """leg[r] = (r/q) for 0 <= r < q, q an odd prime."""
    leg = np.full(q, -1, dtype=np.int8)
    leg[0] = 0
    r = np.arange(1, (q + 1) // 2, dtype=np.int64)
    leg[r * r % q] = 1
    return leg


def character_table(disc: int, spf: np.ndarray) -> np.ndarray:
    """chi[r] = (disc/r) for 0 <= r < |disc|, disc a fundamental discriminant.

    chi is the Kronecker symbol as a character periodic mod |disc|, so
    chi[p mod |disc|] answers split/inert for any prime p not dividing
    disc.  disc is the product of prime discriminants q* = ±q, one per odd
    prime q dividing it, and one of -4, 8, -8 when it is even; (q*/r) is
    the Legendre symbol (r/q).  spf is a smallest-factor table reaching
    |disc| (see smallest_factor_table).
    """
    d = abs(disc)
    odd = d >> ((d & -d).bit_length() - 1)
    if d == odd:
        chi = np.ones(d, dtype=np.int8)
    elif d == 4 * odd:
        chi = np.tile(_CHI_M4, odd)
    else:  # disc = 8u with u odd: the 2-part is 8 if u = 1 mod 4, else -8
        chi = np.tile(_CHI_8 if (disc // 8) % 4 == 1 else _CHI_M8, odd)
    while odd > 1:
        q = int(spf[odd])
        odd //= q
        chi *= np.tile(_legendre_table(q), d // q)
    return chi


def character_tables(discs: list[int]) -> list[np.ndarray]:
    """character_table(disc) for each disc, sharing one smallest-factor table."""
    if not discs:
        return []
    spf = smallest_factor_table(max(abs(d) for d in discs))
    return [character_table(disc, spf) for disc in discs]


# ---------------------------------------------------------------------------
# packed split masks: bit f of row i set iff primes[i] splits in field f

_MASK_BLOCK = 1 << 15  # primes per pass over the tables, keeps the block in cache


def build_split_masks(primes: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """uint64 words of shape (len(primes), ceil(len(tables)/64)).

    tables[f] is field f's character table (see character_tables); its
    length is |disc|, the period of the character.  Bit f is set where
    the table reads 1, so any periodic 0/1 table can stand in for a field.
    """
    width = (len(tables) + 63) // 64
    primes = np.asarray(primes, dtype=np.int64)
    words = np.zeros((width, len(primes)), dtype=np.uint64)
    n = min(len(primes), _MASK_BLOCK)
    residue = np.empty(n, dtype=np.int64)
    hit = np.empty(n, dtype=np.uint8)
    bit = np.empty(n, dtype=np.uint64)
    for w in range(width):
        # one word's fields at a time, each as a 0/1 byte table
        split = [(chi == 1).view(np.uint8) for chi in tables[64 * w:64 * w + 64]]
        for b0 in range(0, len(primes), _MASK_BLOCK):
            block = primes[b0:b0 + _MASK_BLOCK]
            k = len(block)
            r, h, g = residue[:k], hit[:k], bit[:k]
            out = words[w, b0:b0 + k]
            for b, table in enumerate(split):
                # p - (p // m) * m: numpy divides by a scalar without a
                # hardware division, which its remainder does not
                np.floor_divide(block, len(table), out=r)
                r *= len(table)
                np.subtract(block, r, out=r)
                np.take(table, r, out=h)
                np.left_shift(h, np.uint64(b), out=g, dtype=np.uint64)
                out |= g
    return np.ascontiguousarray(words.T)


def masks_to_ints(words: np.ndarray) -> list[int]:
    """Each uint64 row as one Python int, for the readers of one row at a
    time: constructions._greedy_roles and search.verify_exclusion_3d."""
    le = np.ascontiguousarray(words, dtype="<u8")
    return [int.from_bytes(row.tobytes(), "little") for row in le]
