"""Numeric kernels with numba-jitted hot paths and pure-numpy fallbacks.

Path selection: setting the environment variable SYSARITH_NO_NUMBA to a
nonempty value other than "0" forces the numpy fallbacks; otherwise the
jitted kernels are used whenever numba imports cleanly.  Integer kernels
return bit-identical results on both paths; the floating-point lattice sum
agrees to ~1e-14 relative (summation order differs).  The script
scripts/bench_kernels.py compares the paths and times both.

Only machine-word arithmetic lives here.  Anything needing big integers
(fundamental units, subset products) stays in pure Python elsewhere.
"""

from __future__ import annotations

import math
import os

import numpy as np

_flag = os.environ.get("SYSARITH_NO_NUMBA", "0")
_want_jit = _flag in ("", "0")
if _want_jit:
    try:
        from numba import njit
    except Exception:  # pragma: no cover - only hit when numba is absent
        _want_jit = False

JIT_ENABLED = _want_jit


# ---------------------------------------------------------------------------
# prime sieve

def _primes_mask_np(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=np.bool_)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def _primes_np(n: int) -> np.ndarray:
    if n < 2:
        return np.empty(0, dtype=np.int64)
    return np.nonzero(_primes_mask_np(n))[0].astype(np.int64)


if JIT_ENABLED:

    @njit(cache=True)
    def _primes_mask_jit(n):  # pragma: no cover - compiled
        mask = np.ones(n + 1, dtype=np.bool_)
        mask[0] = False
        mask[1] = False
        p = 2
        while p * p <= n:
            if mask[p]:
                q = p * p
                while q <= n:
                    mask[q] = False
                    q += p
            p += 1
        return mask

    def _primes_jit(n: int) -> np.ndarray:
        if n < 2:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(_primes_mask_jit(n))[0].astype(np.int64)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array."""
    if JIT_ENABLED:
        return _primes_jit(n)
    return _primes_np(n)


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

if JIT_ENABLED:

    @njit(cache=True)
    def _kronecker_jit(a, n):  # pragma: no cover - compiled
        if n == 0:
            if a == 1 or a == -1:
                return 1
            return 0
        r = 1
        while n % 2 == 0:
            n //= 2
            if a % 2 == 0:
                return 0
            m = a % 8
            if m == 3 or m == 5:
                r = -r
        a %= n
        while a != 0:
            while a % 2 == 0:
                a //= 2
                m = n % 8
                if m == 3 or m == 5:
                    r = -r
            t = a
            a = n
            n = t
            if a % 4 == 3 and n % 4 == 3:
                r = -r
            a %= n
        if n == 1:
            return r
        return 0

    @njit(cache=True)
    def _char_table_jit(disc, spf):  # pragma: no cover - compiled
        d = disc if disc > 0 else -disc
        chi = np.zeros(d, dtype=np.int8)
        chi[1 % d] = 1
        for r in range(2, d):
            p = spf[r]
            if p == r:
                chi[r] = _kronecker_jit(disc, r)
            else:
                chi[r] = chi[p] * chi[r // p]
        return chi


def _char_table_py(disc: int, spf: np.ndarray) -> np.ndarray:
    from .real_quadratic import kronecker

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


def character_table(disc: int, spf: np.ndarray | None = None) -> np.ndarray:
    """chi[r] = (disc/r) for 0 <= r < |disc|, disc a fundamental discriminant.

    chi is the completely multiplicative extension of the Kronecker symbol,
    periodic mod |disc|, so chi[p mod |disc|] answers split/inert for any
    prime p not dividing disc.
    """
    if spf is None:
        spf = smallest_factor_table(abs(disc))
    if JIT_ENABLED:
        return _char_table_jit(disc, spf)
    return _char_table_py(disc, spf)


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


# ---------------------------------------------------------------------------
# lattice partial sum of the Dedekind zeta value at 2 over Z[i]
#
# Nonzero Gaussian integers split into orbits of size 4 under multiplication
# by i; the quarter {a >= 1, b >= 0} hits each orbit once, and orbits
# correspond to nonzero ideals.  So the sum below converges to zeta_{Q(i)}(2).

def _zeta_qi_np(norm_bound: int) -> float:
    total = 0.0
    amax = math.isqrt(norm_bound)
    for a in range(1, amax + 1):
        bmax = math.isqrt(norm_bound - a * a)
        b = np.arange(0, bmax + 1, dtype=np.float64)
        n = a * a + b * b
        total += float(np.sum(1.0 / (n * n)))
    return total


if JIT_ENABLED:

    @njit(cache=True)
    def _zeta_qi_jit(norm_bound):  # pragma: no cover - compiled
        total = 0.0
        a = 1
        while a * a <= norm_bound:
            b = 0
            while a * a + b * b <= norm_bound:
                n = a * a + b * b
                total += 1.0 / (n * n)
                b += 1
            a += 1
        return total


def zeta_qi_lattice_sum(norm_bound: int) -> float:
    """Sum of norm(z)^-2 over one quarter-lattice representative per ideal."""
    if norm_bound < 1:
        return 0.0
    if JIT_ENABLED:
        return float(_zeta_qi_jit(norm_bound))
    return _zeta_qi_np(norm_bound)
