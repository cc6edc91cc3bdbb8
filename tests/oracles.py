"""Independent brute-force oracles the tests compare library code against.

Everything here trades speed for obviousness: direct residue enumeration,
naive subset filters, and straight double-loop lattice sums, written without
reusing any package internals beyond basic value types.  The one exception
is recursive_quad_exts, the reference for the extension walk's enumeration
and order, which reads the package's 2-adic classification (_two_type).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import mpmath
import numpy as np


def sieve_primes(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    mask = bytearray([1]) * (n + 1)
    mask[0] = mask[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = bytearray(len(mask[p * p:: p]))
    return [i for i, m in enumerate(mask) if m]


def int_words(rows, width=None) -> np.ndarray:
    """Python-int rows as a (len(rows), width) uint64 matrix, bit b of a row
    in word b // 64; width defaults to the fewest words, at least one, that
    hold every row."""
    if width is None:
        width = max(1, -(-max(rows, default=0).bit_length() // 64))
    return np.array([[row >> 64 * w & (1 << 64) - 1 for w in range(width)]
                     for row in rows], dtype=np.uint64).reshape(len(rows), width)


def word_ints(words) -> list[int]:
    """The rows of a uint64 word matrix as Python ints, word 0 lowest."""
    return [sum(int(x) << 64 * w for w, x in enumerate(row))
            for row in np.asarray(words).tolist()]


def brute_is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def brute_squarefree_part(n: int) -> int:
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
        if n % k == 0:
            out *= k
            n //= k
        k += 1
    return sign * out * n


def brute_splitting_q(d: int, p: int) -> str:
    """Splitting of p in Q(sqrt(d)) by enumerating squares mod the discriminant rules."""
    disc = d if d % 4 == 1 else 4 * d
    if p == 2:
        if disc % 2 == 0:
            return "ramified"
        return "split" if disc % 8 == 1 else "inert"
    if disc % p == 0:
        return "ramified"
    squares = {(x * x) % p for x in range(1, p)}
    return "split" if disc % p in squares else "inert"


def brute_symbol_qi(delta_a: int, delta_b: int, gen_a: int, gen_b: int,
                    p: int) -> str:
    """Splitting of an odd Gaussian prime ideal in Q(i)(sqrt(delta)) by
    enumerating all squares of the residue field."""
    if gen_b % p != 0:
        i_val = (-gen_a * pow(gen_b, -1, p)) % p
        d = (delta_a + delta_b * i_val) % p
        if d == 0:
            return "ramified"
        squares = {(x * x) % p for x in range(1, p)}
        return "split" if d in squares else "inert"
    q = abs(gen_a)
    squares = set()
    for x in range(q):
        for y in range(q):
            if (x, y) != (0, 0):
                squares.add(((x * x - y * y) % q, (2 * x * y) % q))
    d = (delta_a % q, delta_b % q)
    if d == (0, 0):
        return "ramified"
    return "split" if d in squares else "inert"


def max_ram_cardinality(area_factor_bound: int) -> int:
    """Largest even 2k such that the 2k smallest primes have prod(p-1) < bound."""
    if area_factor_bound < 1:
        # imported here: bench/run.py loads this module before sysarith is on its path
        from sysarith.errors import InputError
        raise InputError(f"area factor bound must be >= 1, got {area_factor_bound}")
    primes: list[int] = []
    n = 1
    card, prod = 0, 1
    while True:
        while len(primes) < card + 2:
            n += 1
            if all(n % k for k in range(2, math.isqrt(n) + 1)):
                primes.append(n)
        prod *= (primes[card] - 1) * (primes[card + 1] - 1)
        if prod >= area_factor_bound:
            return card
        card += 2


def naive_prime_sets(factor_bound: int, cardinality: int) -> list[tuple[int, ...]]:
    """All prime sets of the given size with prod(p-1) < factor_bound,
    sorted by (factor, set).

    The pool is pre-pruned: p can only appear if (p-1) times the product of
    the cardinality-1 smallest factors stays below the bound (that product
    can only shrink by excluding p itself, so nothing valid is dropped).
    """
    if factor_bound <= 1:
        return []
    pool = [p for p in sieve_primes(factor_bound + 1) if p - 1 < factor_bound]
    prefix = math.prod(p - 1 for p in pool[: cardinality - 1])
    pool = [p for p in pool if (p - 1) * prefix < factor_bound]
    out = []
    for combo in combinations(pool, cardinality):
        f = math.prod(p - 1 for p in combo)
        if f < factor_bound:
            out.append((f, combo))
    out.sort()
    return [c for _, c in out]


def naive_minimal_sets(ds, torsion: bool):
    """(factor, sets, n_below): the least-factor even prime sets in which
    every Q(sqrt d), d in ds, has a split prime (and, with `torsion`, some
    p = 1 mod 4 and some p = 1 mod 3), ascending, with the number of even
    sets of smaller factor; naive_prime_sets filtered by brute_splitting_q
    under doubling bounds."""
    def factor(s):
        return math.prod(p - 1 for p in s)

    split: dict = {}

    def covers(s):
        for d in ds:
            for p in s:
                if (d, p) not in split:
                    split[d, p] = brute_splitting_q(d, p) == "split"
            if not any(split[d, p] for p in s):
                return False
        return not torsion or (any(p % 4 == 1 for p in s)
                               and any(p % 3 == 1 for p in s))

    bound = 4
    while True:
        sets = []
        card = 2
        while found := naive_prime_sets(bound, card):
            sets += found
            card += 2
        sets.sort(key=lambda s: (factor(s), s))
        passing = [s for s in sets if covers(s)]
        if passing:
            best = factor(passing[0])
            return (best, [s for s in passing if factor(s) == best],
                    sum(1 for s in sets if factor(s) < best))
        bound *= 2


def lattice_zeta_qi(norm_bound: int) -> float:
    """Partial sum of 1/N(z)^2 over nonzero Gaussian integers up to the norm
    bound, divided by the unit count 4."""
    total = 0.0
    m = int(math.isqrt(norm_bound))
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            n = a * a + b * b
            if 0 < n <= norm_bound:
                total += 1.0 / (n * n)
    return total / 4.0


def biquadratic_rel_disc_norm(m: int) -> int:
    """N(disc of Q(i)(sqrt(m)) / Q(i)) for a rational squarefree m (m not 0,
    and the extension nontrivial), via the product of the discriminants of
    the three quadratic subfields of the degree-4 Galois field Q(i, sqrt(m)):
    |disc| = |d(-1) * d(m) * d(-m)|, and the relative norm is |disc| / 16.
    """

    def fund_disc(d: int) -> int:
        return d if d % 4 == 1 else 4 * d

    abs_disc = abs(fund_disc(-1) * fund_disc(m) * fund_disc(-m))
    if abs_disc % 16:
        raise ValueError(f"|disc| = {abs_disc} of Q(i, sqrt({m})) is not divisible by 16")
    return abs_disc // 16


def brute_even_split_qi(delta_a: int, delta_b: int) -> bool:
    """Whether the even prime (1+i) splits in Q(i)(sqrt(delta)), for odd
    delta: true iff delta is a 2-adic square, checked by enumerating every
    odd square residue modulo (1+i)^5.  (x+yi) is divisible by (1+i)^5 iff
    x+y and x-y are both 0 mod 8."""
    if (delta_a + delta_b) % 2 != 1:
        raise ValueError(f"delta = {delta_a}{delta_b:+}i must be odd")
    for a in range(16):
        for b in range(16):
            if (a + b) % 2 != 1:
                continue
            x = (a * a - b * b) - delta_a
            y = (2 * a * b) - delta_b
            if (x + y) % 8 == 0 and (x - y) % 8 == 0:
                return True
    return False


def brute_splits_qi(P, delta_a: int, delta_b: int) -> bool:
    """Whether the Gaussian prime ideal P splits in Q(i)(sqrt(delta)), by
    the residue enumerations above; (1+i) can split only for odd delta."""
    if P.norm % 2 == 0:
        return (delta_a + delta_b) % 2 == 1 and brute_even_split_qi(delta_a, delta_b)
    p = P.norm if P.kind == "split" else P.gen.a
    return brute_symbol_qi(delta_a, delta_b, P.gen.a, P.gen.b, p) == "split"


def recursive_quad_exts(limit: int, above: int = 0) -> list:
    """The extensions of Q(i) with above < rel_disc_norm <= limit, sorted by
    (rel_disc_norm, delta norm, unit_exp, generator keys), by a recursive
    descent: the odd prime generators are chosen in (norm, b, a) order, each
    step carrying their product; a product times 1 or i gives an odd delta,
    whose (1+i)-exponent is _two_type's, and that delta times (1+i) has
    exponent 5."""
    from sysarith.gaussian import (GaussianInt, GaussianQuadExt, _two_type,
                                   canonical_associate, gaussian_primes_up_to_norm)

    pi, pi_key = GaussianInt(1, 1), (2, 1, 1)
    odd = [(P.gen, (P.norm, P.gen.b, P.gen.a)) for P in gaussian_primes_up_to_norm(limit)
           if P.norm % 2]
    out = []

    def emit(gens, keys, a, b, n):
        odd_part = canonical_associate(GaussianInt(a, b))
        for unit_exp, da, db in ((0, a, b), (1, -b, a)):
            if gens or unit_exp:  # delta = 1 is a square
                two_exp, kind = _two_type(da, db)
                out.append(((n << two_exp, n, unit_exp, keys), GaussianQuadExt(
                    GaussianInt(da, db), unit_exp, gens, odd_part, two_exp, n << two_exp, kind)))
            out.append(((n << 5, 2 * n, unit_exp, (pi_key,) + keys), GaussianQuadExt(
                GaussianInt(da - db, da + db), unit_exp, (pi,) + gens, odd_part, 5, n << 5,
                "ramified")))

    def rec(start, gens, keys, a, b, n):
        emit(gens, keys, a, b, n)
        for j in range(start, len(odd)):
            (g, k), m = odd[j], n * odd[j][0].norm
            if m > limit:
                break  # norms ascending, nothing later fits either
            rec(j + 1, gens + (g,), keys + (k,), a * g.a - b * g.b, a * g.b + b * g.a, m)

    rec(0, (), (), 1, 0, 1)
    out.sort(key=lambda t: t[0])
    return [e for key, e in out if above < key[0] <= limit]


def ext_columns(exts) -> np.ndarray:
    """The int64 columns that the extension walk hands out beside exts, of
    shape (5, len(exts)), read off the objects: a and b of each delta =
    a + bi, 1 where (1+i) splits (exponent 0 and splitting "split"), and a
    and b of the product of the odd generators (norm odd), taken from 1."""
    cols = []
    for e in exts:
        ga, gb = 1, 0
        for g in e.gens:
            if (g.a * g.a + g.b * g.b) % 2:
                ga, gb = ga * g.a - gb * g.b, ga * g.b + gb * g.a
        cols.append((e.delta.a, e.delta.b,
                     e.rel_disc_two_exp == 0 and e.two_splitting == "split", ga, gb))
    return np.array(cols, dtype=np.int64).reshape(len(exts), 5).T


def greedy_cover_ints(rows, full_mask):
    """The reference greedy max-coverage over Python-int bitmask rows:
    picked indices in order, or None if some bit of full_mask is in no row.

    Each round scans the rows ascending and keeps the first of the highest
    count, so ties go to the earliest row; picks that the later picks make
    redundant are then dropped, the last first.
    """
    uncovered = full_mask
    picks = []
    while uncovered:
        best_i, best_n = None, 0
        for i, row in enumerate(rows):
            n = (row & uncovered).bit_count()
            if n > best_n:
                best_i, best_n = i, n
        if best_i is None:
            return None
        picks.append(best_i)
        uncovered &= ~rows[best_i]
    kept = list(picks)
    for i in reversed(range(len(kept))):
        rest = 0
        for j, k in enumerate(kept):
            if j != i:
                rest |= rows[k]
        if rest & full_mask == full_mask:
            del kept[i]
    return kept


def naive_valid_sets_qi(pool, exts):
    """(factor, sets, n_below) for the least-factor even subsets of `pool`
    in which every extension of `exts` has a split ideal, factor being
    prod(N(P) - 1); sets are tuples in pool order and n_below counts the
    even subsets of smaller factor.  None if no even subset passes.  Every
    even subset is tried, by itertools.combinations."""
    rows = [sum(1 << e for e, ext in enumerate(exts)
                if brute_splits_qi(P, ext.delta.a, ext.delta.b)) for P in pool]
    target = (1 << len(exts)) - 1
    tried = []
    for k in range(2, len(pool) + 1, 2):
        for idx in combinations(range(len(pool)), k):
            acc = 0
            for i in idx:
                acc |= rows[i]
            tried.append((math.prod(pool[i].norm - 1 for i in idx), acc == target,
                          tuple(pool[i] for i in idx)))
    passing = [f for f, ok, _ in tried if ok]
    if not passing:
        return None
    best = min(passing)
    return (best, [s for f, ok, s in tried if ok and f == best],
            sum(1 for f, _, _ in tried if f < best))


def brute_fundamental_unit(d: int, y_limit: int = 10 ** 6):
    """Smallest (x, y, norm) with x^2 - disc*y^2 = +-4, y >= 1, by direct scan."""
    disc = d if d % 4 == 1 else 4 * d
    for y in range(1, y_limit):
        for norm in (-1, 1):
            x2 = disc * y * y + 4 * norm
            if x2 > 0:
                x = math.isqrt(x2)
                if x * x == x2:
                    return x, y, norm
    raise AssertionError(f"no unit found for d={d} within y < {y_limit}")


def brute_geodesic_min_trace_length(cap: float) -> list[tuple[int, float]]:
    """(t, length) for traces t >= 3 with length <= cap."""
    out = []
    t = 3
    while True:
        length = math.log((t + math.sqrt(t * t - 4)) / 2)
        if length > cap:
            return out
        out.append((t, length))
        t += 1


@dataclass(frozen=True)
class GeodesicCandidate:
    """An integer trace t, the d of its field Q(sqrt(t^2 - 4)), and both
    length readings: length_trace_mode is log of the norm-1 unit
    (t + sqrt(t^2 - 4))/2, an integer multiple of the regulator (1 or 2
    exactly at minimal traces, e.g. at systole witnesses), and
    length_paper_mode is the regulator itself."""

    trace: int
    d: int
    length_trace_mode: float
    length_paper_mode: float


def geodesic_candidate(t: int) -> GeodesicCandidate:
    """The candidate of trace t >= 3, its regulator from the Pell scan."""
    d = brute_squarefree_part(t * t - 4)
    x, y, _ = brute_fundamental_unit(d)
    disc = d if d % 4 == 1 else 4 * d
    return GeodesicCandidate(t, d, math.log((t + math.sqrt(t * t - 4)) / 2),
                             math.log((x + y * math.sqrt(disc)) / 2))


def brute_fields_with_regulator_below(l: float) -> list[tuple[int, float]]:
    """(d, regulator) for every real quadratic field Q(sqrt(d)) whose
    fundamental unit eps = (x + y*sqrt(disc))/2 has log(eps) < l, ascending d.

    A bounded Pell scan: eps > y*sqrt(disc)/2, so only y < 2e^l/sqrt(disc)
    can give eps < e^l, and x^2 >= disc - 4 gives eps > sqrt(disc - 4), so
    only disc < e^(2l) + 4 can.  The smallest y solving x^2 - disc*y^2 = +-4
    is the fundamental unit; at equal y the norm -1 solution is smaller.
    """
    out = []
    for d in range(2, math.floor(math.exp(2 * l) + 4) + 1):
        if not brute_is_squarefree(d):
            continue
        disc = d if d % 4 == 1 else 4 * d
        y = 1
        while y * math.sqrt(disc) < 2 * math.exp(l):
            unit = None
            for norm in (-1, 1):
                x2 = disc * y * y + 4 * norm
                x = math.isqrt(x2) if x2 > 0 else -1
                if x >= 0 and x * x == x2:
                    unit = (x + y * math.sqrt(disc)) / 2
                    break
            if unit is not None:
                if math.log(unit) < l:
                    out.append((d, math.log(unit)))
                break
            y += 1
    return out


def walk_unit_logs(x_last: int) -> dict[int, float]:
    """{d: log of the fundamental unit of Q(sqrt(d))} for every field that a
    unit of trace x <= x_last meets, in the order the units are met.

    The unit of trace x and norm n is (x + sqrt(x^2 - 4n))/2, ascending in
    x with norm +1 first, so a field's first unit is its fundamental unit.
    Each log is taken at 256 bits and rounded once to a float."""
    out = {}
    with mpmath.workprec(256):
        for x in range(1, x_last + 1):
            for m in (x * x - 4, x * x + 4):
                d = brute_squarefree_part(m)
                if d > 0 and d not in out:
                    out[d] = float(mpmath.log((x + mpmath.sqrt(m)) / 2))
    return out


def brute_short_traces_qi(l: float) -> list[tuple[tuple[int, int], float]]:
    """((a, b), length) for every loxodromic trace t = a + bi in Z[i] with
    3-manifold length 2*Re arccosh(t/2) < l, sorted by (length, a, b).

    The length is 2*log|lam| for the eigenvalue lam = (t + sqrt(t^2 - 4))/2
    of modulus >= 1.  Every t outside the real segment [-2, 2] counts; a
    length below l forces |t| <= 2*cosh(l/2), which bounds the scan.
    """
    radius = 2 * math.cosh(l / 2)
    m = math.floor(radius)
    out = []
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            if a * a + b * b > radius * radius or (b == 0 and abs(a) <= 2):
                continue
            t = complex(a, b)
            root = cmath.sqrt(t * t - 4)
            lam = max(abs(t + root), abs(t - root)) / 2
            length = 2 * math.log(lam)
            if length < l:
                out.append(((a, b), length))
    out.sort(key=lambda e: (e[1], e[0]))
    return out


def brute_catalan(terms: int = 10_000) -> float:
    """Catalan's constant sum_k (-1)^k / (2k+1)^2, from the first `terms`
    terms plus half the next one (the alternating-series midpoint), which
    leaves an error of order terms^-3."""
    partial = sum((-1) ** k / (2 * k + 1) ** 2 for k in range(terms))
    return partial + 0.5 * (-1) ** terms / (2 * terms + 1) ** 2
