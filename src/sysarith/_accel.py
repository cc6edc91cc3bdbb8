"""Numeric kernels in numpy: the prime sieve, character tables and packed
split masks.

Only machine-word arithmetic lives here.  Anything needing big integers
(fundamental units, subset products) stays in pure Python elsewhere.

`prime_segments` is the one prime sieve: odd-only and segmented (Bays &
Hudson, BIT 17, 1977), it strikes one segment of odd numbers at a time with
the odd primes up to sqrt(hi), so its scratch is one segment, not hi bytes,
and a sweep over the ranges [2^k, 2^(k+1)) extends the primes it has
without re-sieving from 2.  `primes_up_to` joins its segments, and
`squarefree_up_to` strikes the multiples of the squares of its primes.

`_part_matrix` is the one factorization: it splits every discriminant of a
list into its prime discriminants at once, from one smallest-factor table,
and numbers the distinct ones.  `character_table` builds the Kronecker
character of a fundamental discriminant as the product of the Legendre
tables of the odd primes dividing it and a character mod 8 for its 2-part
(Cohen, A Course in Computational Algebraic Number Theory, §1.4); the
tables of small primes are built once and shared, read-only.

`build_split_masks` is the one kernel for split rows over Q.  χ_d(p) = 1
iff an even number of the symbols whose product it is read -1, so each
distinct prime discriminant's symbol is read once at every prime, as a row
of bits where it reads -1, and a field's split bits are the complement of
the XOR of its parts' rows: no field has a table.

`legendre_wheels` and `wheel_words` read word 0 of a search's held primes
from the same factorization.  Each odd q dividing one of up to 64
discriminants gets a uint64 table over its residues that holds, at the
non-residues, the bits of the fields q divides, and the 2-parts share one
such table mod 8; a prime's word is the complement of the XOR of these
tables at p, less the bits of the fields p divides.  The moduli are
pairwise coprime, so tables fold into wheels over the product of their
moduli (Pritchard, Acta Inf. 17, 1982), and a prime reads one residue per
wheel, not one per field.

`runs` expands index runs [starts[k], ends[k]) into (k, j) pairs: the
range sweep's prefix walk and the walk over products of Gaussian prime
generators each grow all their prefixes by one member with it.
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


def squarefree_up_to(n: int) -> np.ndarray:
    """sf[m] = m is squarefree, for 0 <= m <= n; sf[0] is False.  Each p^2,
    p a prime up to sqrt(n), strikes its multiples."""
    sf = np.ones(n + 1, dtype=np.bool_)
    sf[0] = False
    for p in primes_up_to(math.isqrt(n)).tolist():
        sf[p * p::p * p] = False
    return sf


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
_TWO_PARTS = {-4: np.array([0, 1, 0, -1], dtype=np.int8),
              8: np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8),
              -8: np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8)}


def _legendre_table(q: int) -> np.ndarray:
    """leg[r] = (r/q) for 0 <= r < q, q an odd prime."""
    leg = np.full(q, -1, dtype=np.int8)
    leg[0] = 0
    r = np.arange(1, (q + 1) // 2, dtype=np.int64)
    leg[_mod(r * r, q, r)] = 1
    return leg


def _part_matrix(discs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The prime discriminants whose product is each of discs, fundamental
    discriminants, all at once: (qs, part), qs the distinct ones ascending
    and part[f, k] the index in qs of disc f's k-th part.

    An even disc has one of -4, 8, -8 in column 0 (8 for disc = 8u with
    u = 1 mod 4, -8 for u = 3 mod 4); then come the odd primes q dividing
    it, ascending, each standing for q* = ±q, whose character (q*/r) is the
    Legendre symbol (r/q).  A 0 in qs stands for no part.  The odd primes
    are read from one smallest-factor table reaching max |disc|.
    """
    disc = np.asarray(discs, dtype=np.int64)
    spf = smallest_factor_table(int(np.abs(disc).max(initial=1)))
    low = disc & -disc
    odd = np.abs(disc // low)
    cols = [np.where(low == 1, 0, np.where(low == 4, -4, np.where(disc // 8 % 4 == 1, 8, -8)))]
    while odd.max(initial=1) > 1:
        q = spf[odd]
        cols.append(np.where(odd > 1, q, 0))
        odd //= q
    qs, part = np.unique(np.stack(cols, axis=1), return_inverse=True)
    return qs, part.reshape(len(disc), len(cols))


# the symbols of the prime discriminants q with |q| below this are kept,
# read-only, once built: 1.1 MB for all of them.  Keeping every q met would
# hold 92 MB more at the greedy cover of x = 4.5 (peak 90 -> 182 MB), and
# keeping those below 2^14 13 MB more, for no time gained: that cover reads
# each symbol once per window
_SYMBOL_MEMO_BELOW = 1 << 12
_symbols: dict[int, np.ndarray] = dict(_TWO_PARTS)
for _part in _symbols.values():
    _part.flags.writeable = False


def _symbol(q: int) -> np.ndarray:
    """The character of the prime discriminant q (see _part_matrix) over one
    period; read-only if it comes from the memo."""
    sym = _symbols.get(q)
    if sym is None:
        sym = _legendre_table(q)
        if q < _SYMBOL_MEMO_BELOW:
            sym.flags.writeable = False
            _symbols[q] = sym
    return sym


# a prime q below this gets its symbols from a Legendre table of all its
# residues, one past it by Euler's criterion at the residues read: the table
# holds q bytes and its build peaks at 13q bytes with its int64 scratch
# (3.4 MB here), so its memory grows with q, while Euler's keeps one Python
# int per residue read.  The pool searches and the greedy Q(i) cover build
# tables below this (up to 179,573 at x = 4.5); past it lie the large norms
# given to verify_exclusion_3d
_TABLE_BELOW = 1 << 18


def euler_symbols(res: np.ndarray, q: int) -> np.ndarray:
    """(r/q) for each residue 0 <= r < q in res, q an odd prime, as int8, by
    Euler's criterion: r^((q-1)/2) mod q is 0, 1 or q - 1, by one Python pow
    per residue, exact at every size."""
    e = (q - 1) // 2
    return np.array([(pow(r, e, q) + 1) % q - 1 for r in res.tolist()], dtype=np.int8)


def character_table(disc: int, parts: list[int]) -> np.ndarray:
    """chi[r] = (disc/r) for 0 <= r < |disc|, disc a fundamental discriminant
    and parts its prime discriminants (see _part_matrix).

    chi is the Kronecker symbol as a character periodic mod |disc|, so
    chi[p mod |disc|] answers split/inert for any prime p not dividing
    disc: the product of the characters of its prime discriminants.  Each
    symbol's period m divides |disc|, so it multiplies chi in place through
    the (|disc|/m, m) view, with no tiled copy; the symbols of small q come
    from a memo (_symbol).
    """
    chi = np.empty(abs(disc), dtype=np.int8)
    for i, q in enumerate(parts):
        sym = _symbol(q)
        rows = chi.reshape(-1, len(sym))  # a view
        if i:
            rows *= sym
        else:
            rows[:] = sym
    return chi


def character_tables(discs: list[int]) -> list[np.ndarray]:
    """character_table(disc) for each disc, from one _part_matrix."""
    qs, part = _part_matrix(discs)
    return [character_table(disc, [q for q in row if q])
            for disc, row in zip(discs, qs[part].tolist())]


# ---------------------------------------------------------------------------
# packed split masks: bit f of row i set iff primes[i] splits in field f

_MASK_BLOCK = 1 << 15  # primes per block of the split-row and word-0 kernels


def _mod(block: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """block mod m into out, as block - (block // m) * m: numpy divides by a
    scalar without a hardware division, which its remainder does not."""
    np.floor_divide(block, m, out=out)
    out *= m
    return np.subtract(block, out, out=out)


def build_split_masks(primes: np.ndarray, discs: list[int]) -> np.ndarray:
    """uint64 words of shape (len(primes), ceil(len(discs)/64)): bit f of
    row i is set iff primes[i], ascending, splits in the field of disc
    discs[f], a fundamental discriminant.

    Each distinct prime discriminant (see _part_matrix) gets one row,
    packed along the primes, of where its symbol reads -1.  A field splits
    at p iff an even number of its parts read -1 there and p does not
    divide its disc, so a word of 64 fields is the complement of the XOR of
    their parts' rows, unpacked to a byte per (field, prime) and packed
    again along the fields, _MASK_BLOCK primes at a time, so that no
    temporary grows with the fields times the primes.  The primes that
    divide a disc are cleared last, as in wheel_words.
    """
    primes = np.asarray(primes, dtype=np.int64)
    n, width = len(primes), (len(discs) + 63) // 64
    words = np.zeros((n, width), dtype=np.uint64)
    if not n or not width:
        return words
    qs, part = _part_matrix(discs)  # part[f, k]: the row of field f's k-th part
    rows = np.zeros((len(qs), (n + 63) // 64), dtype=np.uint64)
    packed = rows.view(np.uint8)
    residue = np.empty(n, dtype=np.int64)
    for i, q in enumerate(qs.tolist()):
        if q:  # the row of no part reads no -1
            sym = _symbol(q)
            packed[i, :(n + 7) // 8] = np.packbits(
                sym[_mod(primes, len(sym), residue)] == -1, bitorder="little")
    for w in range(width):
        fields = part[64 * w:64 * w + 64]
        for b0 in range(0, n, _MASK_BLOCK):
            k = min(_MASK_BLOCK, n - b0)
            odd = np.bitwise_xor.reduce(rows[fields, b0 // 64:(b0 + k + 63) // 64], axis=1)
            split = np.zeros((64, odd.shape[1]), dtype=np.uint64)  # no bits past the last field
            np.invert(odd, out=split[:len(fields)])
            bits = np.unpackbits(split.view(np.uint8), axis=1, count=k, bitorder="little")
            words[b0:b0 + k, w] = np.packbits(np.ascontiguousarray(bits.T), axis=1,
                                              bitorder="little").view("<u8")[:, 0]
    # a prime dividing a disc is ramified in its field
    p = np.where(qs % 2 == 1, qs, 2 * (qs != 0))  # the prime of each part; 0 for none
    at = np.minimum(primes.searchsorted(p), n - 1)
    f, k = np.nonzero((primes[at] == p)[part])
    np.bitwise_and.at(words, (at[part[f, k]], f // 64),
                      ~np.left_shift(np.uint64(1), (f % 64).astype(np.uint64)))
    return words


# ---------------------------------------------------------------------------
# word 0 from Legendre wheels: one residue per group of small moduli

# the largest period a fold makes: over the 221,117 primes held at l = 4.75,
# 2^10, 2^12 and 2^14 gave 29, 23 and 19 wheels of 0.3, 0.6 and 1.9 MB, read
# in 28, 17 and 15 ms (the 64 tables: 51-66 ms); 2^12 keeps the peak low
_WHEEL_PERIOD = 1 << 12


def legendre_wheels(discs: list[int]) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The plan wheel_words reads for up to 64 fundamental discriminants:
    (wheels, qs, ramified).

    Each wheel is a uint64 table over one period; its entry at r is the XOR,
    over the moduli folded into it, of the bits of the fields whose symbol
    of that modulus reads -1 at r, and the first wheel also carries every
    field bit.  qs are the primes dividing some disc, ascending, and
    ramified[i] the bits of the fields that qs[i] divides.
    """
    qs, part = _part_matrix(discs)
    bits: dict[int, int] = {}  # prime discriminant -> the fields it divides
    for f, row in enumerate(qs[part].tolist()):
        for q in row:
            if q:
                bits[q] = bits.get(q, 0) | 1 << f
    tables: dict[int, np.ndarray] = {}  # modulus -> its XOR table
    ramified: dict[int, int] = {}  # prime -> the fields it divides
    for q, b in bits.items():
        m, p = (q, q) if q % 2 else (8, 2)  # the 2-parts share the modulus 8
        sym = np.resize(_symbol(q), m)
        tables[m] = tables.get(m, 0) ^ np.where(sym == -1, np.uint64(b), np.uint64(0))
        ramified[p] = ramified.get(p, 0) | b
    wheels: list[np.ndarray] = []
    for m in sorted(tables, reverse=True):  # first fit, largest modulus first
        i = next((i for i, w in enumerate(wheels) if len(w) * m <= _WHEEL_PERIOD), None)
        if i is None:
            wheels.append(tables[m])
        else:  # a wheel of period n and a table mod m, coprime: one table mod nm
            wheels[i] = np.tile(wheels[i], m) ^ np.tile(tables[m], len(wheels[i]))
    if wheels:
        wheels[0] ^= np.uint64((1 << len(discs)) - 1)
    qs = sorted(ramified)
    return (wheels, np.array(qs, dtype=np.int64),
            np.array([ramified[q] for q in qs], dtype=np.uint64))


def wheel_words(primes: np.ndarray, plan) -> np.ndarray:
    """Word 0 of the rows of `primes`, an int64 array of primes: bit f set
    iff primes[i] splits in field f of the plan's legendre_wheels(discs),
    as build_split_masks(primes, discs) reads it.  A composite
    n could meet the zero of a symbol, which only the fix-up at the primes
    qs clears."""
    wheels, qs, ramified = plan
    words = np.zeros(len(primes), dtype=np.uint64)
    residue = np.empty(min(len(primes), _MASK_BLOCK), dtype=np.int64)
    for b0 in range(0, len(primes), _MASK_BLOCK):
        block = primes[b0:b0 + _MASK_BLOCK]
        r, out = residue[:len(block)], words[b0:b0 + _MASK_BLOCK]
        for wheel in wheels:
            out ^= wheel[_mod(block, len(wheel), r)]
    if len(primes):  # a prime dividing a disc is ramified in its fields
        i = np.minimum(primes.searchsorted(qs), len(primes) - 1)
        hit = primes[i] == qs
        words[i[hit]] &= ~ramified[hit]
    return words


# ---------------------------------------------------------------------------
# run expansion

def runs(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, j) for every j in [starts[k], ends[k]), by k and then j ascending:
    the run expansion of the sweep's prefix walk and the extension walk."""
    lens = np.maximum(ends - starts, 0)
    k = np.repeat(np.arange(len(lens)), lens)
    return k, np.arange(len(k)) + np.repeat(starts - np.cumsum(lens) + lens, lens)
