"""Numeric kernels in numpy: the prime sieve, character tables and packed
split masks.

Only machine-word arithmetic lives here.  Anything needing big integers
(fundamental units, subset products) stays in pure Python elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from .real_quadratic import kronecker

# There is one kernel path.  bench/child.py records this flag in the
# provenance of every benchmark run, so it stays until that record drops it.
JIT_ENABLED = False


# ---------------------------------------------------------------------------
# prime sieve

def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=np.bool_)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# smallest-prime-factor table (drives the multiplicative character fill)

def smallest_factor_table(n: int) -> np.ndarray:
    """spf[m] = smallest prime factor of m for 2 <= m <= n; spf[0] = spf[1] = 1."""
    spf = np.zeros(n + 1, dtype=np.int64)
    spf[:2] = 1
    for p in range(2, n + 1):
        if spf[p] == 0:
            sl = spf[p::p]
            sl[sl == 0] = p
    return spf


# ---------------------------------------------------------------------------
# Kronecker symbol table for one field, as a periodic character mod |disc|

def character_table(disc: int, spf: np.ndarray) -> np.ndarray:
    """chi[r] = (disc/r) for 0 <= r < |disc|, disc a fundamental discriminant.

    chi is the completely multiplicative extension of the Kronecker symbol,
    periodic mod |disc|, so chi[p mod |disc|] answers split/inert for any
    prime p not dividing disc.  spf is a smallest-factor table reaching
    |disc| - 1 (see smallest_factor_table).
    """
    d = abs(disc)
    chi = np.zeros(d, dtype=np.int8)
    chi[1 % d] = 1
    for r in range(2, d):
        p = int(spf[r])
        if p == r:
            chi[r] = kronecker(disc, r)
        else:
            chi[r] = chi[p] * chi[r // p]
    return chi


def character_tables(discs: list[int]) -> list[np.ndarray]:
    """character_table(disc) for each disc, sharing one smallest-factor table."""
    if not discs:
        return []
    spf = smallest_factor_table(max(abs(d) for d in discs))
    return [character_table(disc, spf) for disc in discs]


# ---------------------------------------------------------------------------
# packed split masks: bit f of row i set iff primes[i] splits in field f

def build_split_masks(primes: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """uint64 words of shape (len(primes), ceil(len(tables)/64)).

    tables[f] is field f's character table (see character_tables); its
    length is |disc|, the period of the character.
    """
    width = (len(tables) + 63) // 64
    # word-major while filling, so each OR runs over contiguous memory
    words = np.zeros((width, len(primes)), dtype=np.uint64)
    for f, chi in enumerate(tables):
        bits = np.where(chi == 1, np.uint64(1 << (f % 64)), np.uint64(0))
        words[f // 64] |= bits[primes % len(chi)]
    return np.ascontiguousarray(words.T)


def masks_to_ints(words: np.ndarray) -> list[int]:
    """Collapse each uint64 row into one arbitrary-width Python int."""
    le = np.ascontiguousarray(words, dtype="<u8")
    return [int.from_bytes(row.tobytes(), "little") for row in le]
