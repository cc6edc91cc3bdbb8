"""Arithmetic over Z[i]: canonical prime ideals, quadratic residue symbols,
and quadratic extensions Q(i)(sqrt(delta)) with exact relative discriminants.

Canonical generators: (1+i) above 2; (q, 0) for inert q = 3 mod 4; for split
p = 1 mod 4 the two conjugates a+bi with a > b > 0 and b+ai.  Units of Z[i]
modulo squares are {1, i} since -1 = i^2, so a square class is a unit flag
plus a set of distinct canonical prime generators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateExtensionError, InputError, SysarithError, check_int, check_real
from .real_quadratic import INERT, RAMIFIED, SPLIT, _prime_factors, is_prime

from . import _accel


@dataclass(frozen=True, slots=True)
class GaussianInt:
    """a + b*i with exact integer components."""

    a: int
    b: int

    @property
    def norm(self) -> int:
        return self.a * self.a + self.b * self.b

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.a, -self.b)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}i"
        return f"{self.a}{self.b:+}i"

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b}


ONE = GaussianInt(1, 0)
IUNIT = GaussianInt(0, 1)


def _exact_div(z: GaussianInt, w: GaussianInt) -> GaussianInt | None:
    """z / w if w divides z in Z[i], else None: z / w = z * conj(w) / N(w)."""
    n, t = w.norm, z * w.conj()
    if t.a % n or t.b % n:
        return None
    return GaussianInt(t.a // n, t.b // n)


def _first_quadrant(a: int, b: int) -> tuple[int, int]:
    """The associate i^k * (a + bi) with a > 0, b >= 0, for a + bi != 0."""
    if a > 0 and b >= 0:
        return a, b
    if a <= 0 and b > 0:
        return b, -a
    if a < 0 and b <= 0:
        return -a, -b
    return -b, a


def canonical_associate(z: GaussianInt) -> GaussianInt:
    """The associate i^k * z with a > 0, b >= 0 (first quadrant, real axis in)."""
    if z.a == 0 and z.b == 0:
        return z
    return GaussianInt(*_first_quadrant(z.a, z.b))


@dataclass(frozen=True)
class GaussianPrimeIdeal:
    """A prime of Z[i] with its canonical generator and residue behaviour."""

    gen: GaussianInt
    norm: int
    kind: str

    def to_json(self) -> dict:
        return {"a": self.gen.a, "b": self.gen.b, "norm": self.norm, "kind": self.kind}


def _ideal_key(P: GaussianPrimeIdeal) -> tuple:
    return (P.norm, P.gen.b, P.gen.a)


def splitting_in_qi(p: int) -> str:
    """Behaviour of a rational prime in Z[i]: 2 ramifies, 1 mod 4 splits."""
    if not is_prime(check_int(p, "p")):
        raise InputError(f"{p} is not prime")
    if p == 2:
        return RAMIFIED
    return SPLIT if p % 4 == 1 else INERT


def _sum_two_squares(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p and a > b > 0, for prime p = 1 mod 4."""
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    x = pow(n, (p - 1) // 4, p)
    a, b = p, x
    while b * b > p:
        a, b = b, a % b
    a = a % b
    lo, hi = sorted((abs(a), abs(b)))
    if lo * lo + hi * hi != p or lo == 0:
        raise SysarithError(
            f"Cornacchia step gave {lo}^2 + {hi}^2, not a sum of two "
            f"nonzero squares equal to {p}")
    return hi, lo


def _ideals_above(p: int) -> tuple[GaussianPrimeIdeal, ...]:
    """The primes of Z[i] above the prime p, which is not checked: (1+i) for
    2, (p) of norm p^2 for p = 3 mod 4, else a+bi with a > b, then b+ai."""
    if p == 2:
        return (GaussianPrimeIdeal(GaussianInt(1, 1), 2, RAMIFIED),)
    if p % 4 == 3:
        return (GaussianPrimeIdeal(GaussianInt(p, 0), p * p, INERT),)
    a, b = _sum_two_squares(p)
    return (GaussianPrimeIdeal(GaussianInt(a, b), p, SPLIT),
            GaussianPrimeIdeal(GaussianInt(b, a), p, SPLIT))


def ideal_above(p: int, conjugate: bool = False) -> GaussianPrimeIdeal:
    """The canonical prime above p; conjugate=True picks b+ai for split p."""
    p = check_int(p, "p")
    splitting_in_qi(p)  # InputError unless p is prime
    ideals = _ideals_above(p)
    return ideals[-1] if conjugate else ideals[0]


def gaussian_primes_up_to_norm(bound: int) -> list[GaussianPrimeIdeal]:
    """All primes of Z[i] with norm <= bound, sorted by (norm, b, a).

    Split conjugates come out adjacent, a > b generator first.  The primes
    come from one sieve, so the ideals are built without ideal_above's
    primality test.
    """
    return _gaussian_primes(0, math.floor(check_real(bound, "norm bound")))


def _gaussian_primes(above: int, bound: int) -> list[GaussianPrimeIdeal]:
    """The primes of Z[i] with above < norm <= bound, sorted by (norm, b, a);
    the norm (p, or p^2 when inert) is checked before the ideals are built."""
    out = [P for p in _accel.primes_up_to(bound).tolist()
           if above < (p * p if p % 4 == 3 else p) <= bound
           for P in _ideals_above(p)]
    out.sort(key=_ideal_key)
    return out


def _gauss_pow_mod(a: int, b: int, e: int, q: int) -> tuple[int, int]:
    ra, rb = 1 % q, 0
    a %= q
    b %= q
    while e:
        if e & 1:
            ra, rb = (ra * a - rb * b) % q, (ra * b + rb * a) % q
        a, b = (a * a - b * b) % q, (2 * a * b) % q
        e >>= 1
    return ra, rb


def quad_residue_symbol(delta: GaussianInt, P: GaussianPrimeIdeal) -> int:
    """delta^((N-1)/2) in the residue field of an odd prime P: +1, -1, or 0."""
    if isinstance(delta, int):
        delta = GaussianInt(delta, 0)
    if P.norm % 2 == 0:
        raise InputError("residue symbol undefined at the even prime (1+i)")
    if P.kind == SPLIT:
        p = P.norm
        u, v = P.gen.a, P.gen.b
        # i maps to -u/v in Z[i]/(u+vi) = F_p
        img = (delta.a - delta.b * u * pow(v, -1, p)) % p
        if img == 0:
            return 0
        s = pow(img, (p - 1) // 2, p)
        return 1 if s == 1 else -1
    q = P.gen.a
    if delta.a % q == 0 and delta.b % q == 0:
        return 0
    ra, rb = _gauss_pow_mod(delta.a, delta.b, (q * q - 1) // 2, q)
    if rb != 0 or ra not in (1, q - 1):
        raise SysarithError(
            f"Euler power of {delta} mod the inert prime {q} is {ra} + {rb}i, "
            "not +-1")
    return 1 if ra == 1 else -1


# ---------------------------------------------------------------------------
# square classes and factorization

def factor_gaussian(z: GaussianInt) -> tuple[GaussianInt, list[tuple[GaussianInt, int]]]:
    """z = unit * prod(gen^e) over canonical prime generators, norms ascending."""
    if z.norm == 0:
        raise InputError("cannot factor 0")
    factors: list[tuple[GaussianInt, int]] = []
    for p, _ in _prime_factors(z.norm):
        for P in _ideals_above(p):
            e = 0
            while (q := _exact_div(z, P.gen)) is not None:
                z, e = q, e + 1
            if e:
                factors.append((P.gen, e))
    if z.norm != 1:
        raise SysarithError(
            f"factorization left the remainder {z} of norm {z.norm}, not a unit")
    factors.sort(key=lambda t: (t[0].norm, t[0].b, t[0].a))
    return z, factors


def canonicalize_delta(z: GaussianInt) -> tuple[int, tuple[GaussianInt, ...]]:
    """Square class of z as (unit_exp in {0,1}, odd-exponent canonical primes).

    -1 = i^2 is a square, so the unit classes are represented by 1 and i.
    """
    unit, factors = factor_gaussian(z)
    gens = tuple(g for g, e in factors if e % 2 == 1)
    unit_exp = 1 if unit in (IUNIT, GaussianInt(0, -1)) else 0
    return unit_exp, gens


# ---------------------------------------------------------------------------
# the quadratic defect at (1+i), on units of Z[i] mod (1+i)^8 = 16*(-1)
#
# For odd u the extension Q(i)(sqrt(u)) is unramified at (1+i) iff u is
# congruent to a square times 1 mod (1+i)^5; the defect below measures the
# best such approximation and fixes the (1+i)-exponent of the relative
# discriminant: defect 1 -> exponent 4, defect 3 -> exponent 2, defect 4 ->
# exponent 0 inert, defect >= 5 -> exponent 0 split.

_ODD_SQUARES_MOD16 = tuple(
    sorted(
        {
            ((a * a - b * b) % 16, (2 * a * b) % 16)
            for a in range(16)
            for b in range(16)
            if (a + b) % 2 == 1
        }
    )
)


def _vpi_mod16(a: int, b: int) -> int:
    # (1+i)-valuation of a residue mod 16, capped at 8 (= v of 16 itself)
    if a == 0 and b == 0:
        return 8
    n = a * a + b * b
    return ((n & -n).bit_length()) - 1


@functools.cache
def _defect_table() -> tuple[tuple[int, ...], ...]:
    """table[a][b] = the defect of odd u = a + bi mod 16, the largest
    v(u*s - 1) over the odd squares s; built on first use, not at import.
    The odd squares mod 16 form a group, so that is the largest v(u - s)."""
    return tuple(tuple(max(_vpi_mod16((a - sa) % 16, (b - sb) % 16)
                           for sa, sb in _ODD_SQUARES_MOD16) for b in range(16))
                 for a in range(16))


def _two_type(a: int, b: int) -> tuple[int, str]:
    """The (1+i)-exponent of the relative discriminant of Q(i)(sqrt(delta))
    and the splitting of (1+i) in it, for odd delta = a + bi."""
    defect = _defect_table()[a % 16][b % 16]
    if defect >= 5:
        return 0, SPLIT
    if defect == 4:
        return 0, INERT
    if defect in (1, 3):
        return 5 - defect, RAMIFIED
    raise SysarithError(
        f"2-adic defect of {GaussianInt(a, b)} is {defect}, expected 1 or 3")


@dataclass(frozen=True, slots=True)
class GaussianQuadExt:
    """Q(i)(sqrt(delta)) for delta in a canonical nontrivial square class."""

    delta: GaussianInt
    unit_exp: int
    gens: tuple[GaussianInt, ...]
    rel_disc_odd: GaussianInt
    rel_disc_two_exp: int
    rel_disc_norm: int
    two_splitting: str

    def to_json(self) -> dict:
        return {
            "delta": {
                "a": self.delta.a,
                "b": self.delta.b,
                "unit": "i" if self.unit_exp else "1",
            },
            "rel_disc_norm": self.rel_disc_norm,
        }


def _ext_from_parts(unit_exp: int, gens: tuple[GaussianInt, ...]) -> GaussianQuadExt:
    gens = tuple(sorted(gens, key=lambda g: (g.norm, g.b, g.a)))
    delta = IUNIT if unit_exp else ONE
    for g in gens:
        delta = delta * g
    odd = tuple(g for g in gens if g.norm % 2 == 1)
    if len(odd) != len(gens):
        two_exp, two_kind = 5, RAMIFIED
    else:
        two_exp, two_kind = _two_type(delta.a, delta.b)
    odd_part = ONE
    for g in odd:
        odd_part = odd_part * g
    odd_part = canonical_associate(odd_part) if odd else ONE
    norm = odd_part.norm << two_exp
    return GaussianQuadExt(delta, unit_exp, gens, odd_part, two_exp, norm, two_kind)


def quad_ext(delta) -> GaussianQuadExt:
    """Build Q(i)(sqrt(delta)) from any nonzero delta (int or GaussianInt)."""
    if isinstance(delta, int):
        delta = GaussianInt(delta, 0)
    unit_exp, gens = canonicalize_delta(delta)
    if unit_exp == 0 and not gens:
        raise DegenerateExtensionError(f"{delta} is a square in Q(i)")
    return _ext_from_parts(unit_exp, gens)


def relative_discriminant(delta) -> tuple[GaussianInt, int, int]:
    """(odd part, (1+i)-exponent, norm) of the relative discriminant."""
    ext = quad_ext(delta)
    return ext.rel_disc_odd, ext.rel_disc_two_exp, ext.rel_disc_norm


def splitting_in_ext(P: GaussianPrimeIdeal, ext: GaussianQuadExt) -> str:
    """How the prime P of Z[i] behaves in the quadratic extension."""
    if P.norm % 2 == 0:
        if ext.rel_disc_two_exp > 0:
            return RAMIFIED
        return ext.two_splitting
    if P.gen in ext.gens:
        return RAMIFIED
    s = quad_residue_symbol(ext.delta, P)
    if s == 0:
        raise SysarithError(
            f"residue symbol of {ext.delta} at unramified {P.gen} is 0")
    return SPLIT if s == 1 else INERT


# the largest discriminant bound of an extension list, and of the covers:
# the list holds about 0.26 extensions per unit of norm, at about 0.12 KB each
# as columns and 0.4 KB more once built as an object (slotted dataclasses)
_DISC_CAP = 10_000_000

# The extension walk hands out one int64 column per extension.  Its first
# _SPLIT_ROWS rows are what split rows read: delta = a + bi as a and b, 1
# where (1+i) splits, and the product ga + gb*i of the odd generators, which
# an odd prime ideal divides iff it ramifies in the extension.  Then come the
# (1+i)-exponent of the relative discriminant and the walk's sort keys: the
# relative discriminant norm, the unit exponent and, from row _GENS on, the
# indices of the odd generators, ascending and padded with -1.
_SPLIT_ROWS, _TWO_EXP, _NORM, _GENS = 5, 5, 6, 8

# (limit, the walk's columns of every extension with rel_disc_norm <= limit,
# sorted, the (a, b) columns of every odd prime generator of norm <= limit,
# sorted, the extensions built as objects so far, a prefix of that sorted
# list, and the generators they share as GaussianInts, a prefix of the
# generator columns); rebound as one tuple, so a reader never pairs one
# limit's columns with another's.  The objects cover only the longest prefix
# a caller has asked for as objects: verify_exclusion_3d reads the columns
# alone.
_EMPTY_MEMO = (0, np.zeros((_GENS, 0), np.int64), np.zeros((2, 0), np.int64), [], [])
_exts_memo: tuple[int, np.ndarray, np.ndarray, list[GaussianQuadExt], list[GaussianInt]] = (
    _EMPTY_MEMO)


def _walk_columns(bound: float) -> np.ndarray:
    """The walk's columns (see _GENS) of every extension with rel_disc_norm
    <= bound, a view of the memo's, in the order of quad_exts_with_disc_below.

    A bound past the kept limit extends the columns to max(floor(bound), 2 *
    kept limit), or to _DISC_CAP if that is less: the walk's key starts with
    the norm, so the columns of one level walk (_quad_exts_up_to) over the
    norms past the old limit sort after every kept one and are appended, as
    are the generator columns of _odd_generators past it.  So the memo walks
    each extension once, and no call walks past twice its own bound.  A bound
    past _DISC_CAP raises InputError.
    """
    global _exts_memo
    if check_real(bound, "bound", 0) > _DISC_CAP:
        raise InputError(f"discriminant norm bound {bound:.3g} exceeds "
                         f"the supported cap {_DISC_CAP}")
    limit = math.floor(bound)
    held, cols, gen_cols, exts, gens = _exts_memo
    if held < limit:
        grown = min(max(limit, 2 * held), _DISC_CAP)
        gen_cols = np.concatenate([gen_cols, _odd_generators(held, grown)], axis=1)
        cols = _padded([cols, _quad_exts_up_to(grown, gen_cols, held)])
        _exts_memo = grown, cols, gen_cols, exts, gens
    return cols[:, :cols[_NORM].searchsorted(limit, side="right")]


def quad_exts_with_disc_below(bound: float) -> list[GaussianQuadExt]:
    """All quadratic extensions of Q(i) with rel_disc_norm <= bound.

    Sorted by (rel_disc_norm, delta norm, unit_exp, generator keys); the
    smallest possible norm is 9 (delta = 3), so small bounds give [].  The
    process keeps the walk's columns up to the largest limit asked for
    (_walk_columns), and the extensions as objects only up to the largest
    bound asked for here: the missing ones of a longer prefix are built from
    their columns in one pass, sharing one GaussianInt per odd generator.
    Each call returns a new list sliced from the kept one.  A bound past
    _DISC_CAP raises InputError.
    """
    global _exts_memo
    count = _walk_columns(bound).shape[1]
    held, cols, gen_cols, exts, gens = _exts_memo
    if len(exts) < count:
        new = cols[:, len(exts):count]
        top = int(new[_GENS:].max(initial=-1)) + 1
        gens = gens + [GaussianInt(a, b) for a, b in gen_cols[:, len(gens):top].T.tolist()]
        exts = exts + _exts_from_columns(new, gens)
        _exts_memo = held, cols, gen_cols, exts, gens
    return exts[:count]


def _exts_and_columns(bound: float) -> tuple[list[GaussianQuadExt], np.ndarray]:
    """quad_exts_with_disc_below(bound) and the split rows' columns of its
    extensions (see _GENS), a view of the memo's."""
    exts = quad_exts_with_disc_below(bound)
    return exts, _exts_memo[1][:_SPLIT_ROWS, :len(exts)]


def _ext_at(k: int) -> GaussianQuadExt:
    """The extension at index k of the kept list, built from its columns
    alone, with only its own generators."""
    cols, gen_cols = _exts_memo[1:3]
    gens = {i: GaussianInt(*gen_cols[:, i].tolist()) for i in cols[_GENS:, k].tolist() if i >= 0}
    return _exts_from_columns(cols[:, k:k + 1], gens)[0]


def _exts_from_columns(cols: np.ndarray, gens) -> list[GaussianQuadExt]:
    """The extensions whose walk columns (see _GENS) are cols, each odd
    generator gens[its index]: (1+i) is a generator exactly where the
    exponent is 5, the odd part is the first-quadrant associate of the
    generator product, and (1+i) ramifies wherever the exponent is not 0."""
    pi = GaussianInt(1, 1)
    exts = []
    for x, y, split, ga, gb, exp, norm, unit, idx in zip(*cols[:_GENS].tolist(),
                                                         cols[_GENS:].T.tolist()):
        odd = tuple([gens[i] for i in idx if i >= 0])
        exts.append(GaussianQuadExt(
            GaussianInt(x, y), unit, (pi,) + odd if exp == 5 else odd,
            GaussianInt(*_first_quadrant(ga, gb)), exp, norm,
            RAMIFIED if exp else SPLIT if split else INERT))
    return exts


def _odd_generators(above: int, limit: int) -> np.ndarray:
    """The generator a + bi of each odd prime with above < norm <= limit, by
    (norm, b, a), as int64 columns (a, b) of shape (2, count): from one
    sieve, Cornacchia's a > b > 0 and then b + ai for each split p, and
    (q, 0) for each inert q with q^2 in range."""
    primes = _accel.primes_up_to(limit)
    split = primes[(primes % 4 == 1) & (primes > above)]
    inert = primes[primes % 4 == 3]
    inert = inert[(inert * inert > above) & (inert * inert <= limit)]
    big, small = np.array([_sum_two_squares(p) for p in split.tolist()],
                          dtype=np.int64).reshape(-1, 2).T
    a = np.concatenate([big, small, inert])
    b = np.concatenate([small, big, np.zeros_like(inert)])
    order = np.lexsort((b, np.concatenate([split, split, inert * inert])))
    return np.stack([a[order], b[order]])


def _padded(blocks: list[np.ndarray]) -> np.ndarray:
    """int64 column blocks side by side, each padded below with -1 (no
    generator) to the tallest."""
    height = max(len(c) for c in blocks)
    return np.concatenate([np.pad(c, ((0, height - len(c)), (0, 0)), constant_values=-1)
                           for c in blocks], axis=1)


@functools.cache
def _two_type_table() -> np.ndarray:
    """_two_type over the residues a + bi mod 16, as int64 (exponent, 1 where
    (1+i) splits) of shape (2, 16, 16); only the odd residues are filled."""
    table = np.zeros((2, 16, 16), dtype=np.int64)
    for a in range(16):
        for b in range(1 - a % 2, 16, 2):
            exp, kind = _two_type(a, b)
            table[:, a, b] = exp, kind == SPLIT
    return table


def _quad_exts_up_to(limit: int, gens: np.ndarray, above: int = 0) -> np.ndarray:
    """The walk's columns (see _GENS) of the extensions with above <
    rel_disc_norm <= limit, sorted, by a level walk.

    gens is _odd_generators(0, n) for some n >= limit.  Level k holds every
    product of k of them with norm at most limit as int64 arrays: its parts
    (a, b), its norm and its generators' indices, ascending; all of them
    grow at once into level k + 1 by each later generator that fits
    (_accel.runs).  A product, times 1 or i and times (1+i) or not, gives
    four deltas: an odd one's (1+i)-exponent and splitting are read off its
    residue mod 16 (_two_type_table), and (1+i) times it has exponent 5.
    Each delta whose norm lies in the interval gives a column, and one
    lexsort of the key rows puts the columns of all levels in (norm, unit,
    odd generator indices) order.  The norm fixes the delta norm, the (1+i)
    factor and the level, so keys that compare them would never decide.
    """
    ga, gb = gens
    gn = ga * ga + gb * gb
    two = _two_type_table()
    a, b, n = np.ones(1, np.int64), np.zeros(1, np.int64), np.ones(1, np.int64)
    starts, members = np.zeros(1, np.int64), []
    levels = []
    while len(n):
        # the deltas a + bi, (1+i)(a + bi), i(a + bi) and (1+i)i(a + bi)
        da, db = np.stack([a, a - b, -b, -a - b]), np.stack([b, a + b, a, a - b])
        exp = np.full(da.shape, 5, dtype=np.int64)
        split = np.zeros(da.shape, dtype=np.int64)
        exp[::2], split[::2] = two[:, da[::2] % 16, db[::2] % 16]
        norm = n << exp
        keep = (above < norm) & (norm <= limit)
        keep[0] &= bool(members)  # delta = 1 is a square
        v, p = keep.nonzero()
        levels.append(np.stack([da[v, p], db[v, p], split[v, p], a[p], b[p],
                                exp[v, p], norm[v, p], v >> 1, *(c[p] for c in members)]))
        k, j = _accel.runs(starts, gn.searchsorted(limit // n, side="right"))
        a, b, n = a[k] * ga[j] - b[k] * gb[j], a[k] * gb[j] + b[k] * ga[j], n[k] * gn[j]
        starts, members = j + 1, [c[k] for c in members] + [j]
    cols = _padded(levels)
    del levels  # freed before the columns are sorted
    return cols[:, np.lexsort(cols[:_TWO_EXP:-1])]
