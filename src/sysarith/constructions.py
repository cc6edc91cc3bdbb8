"""Same-systole families, greedy cover algebras, and explicit bound evaluators.

The family generator adjoins a fixed non-split prime and a growing sequence of
non-split primes to a base algebra, preserving the systole field while the
area factor grows by an exact integer identity.  The cover constructions build
an algebra obstructing every quadratic field (resp. extension of Q(i)) below a
discriminant bound by greedy set cover with certified witnesses.  Both bases
run one greedy driver: each supplies the split rows of its primes (resp.
prime ideals) up to a window, and the torsion conditions of quaternion.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import InputError, NoCandidateError, SysarithError, check_int, check_real
from .gaussian import _DISC_CAP, _exts_and_columns, gaussian_primes_up_to_norm
from .geodesics import MODE_PAPER, exact_systole_q
from .quaternion import (
    TORSION_Q,
    TORSION_QI,
    QuaternionAlgebraQ,
    _unmet,
    algebra_q,
    algebra_qi,
    embeds_q,
    require_admissible,
    torsion_free_q,
)
from .real_quadratic import (
    QuadFieldQ,
    _disc_symbol,
    fundamental_discriminant,
    is_prime,
    is_squarefree,
)
from .search import _certify_q, _certify_qi, _full, _member_json, _minimal_sets, _split_rows_qi
from .volume import area_factor

_PRIMORIAL_CAP = 100_000_000

ROLE_COVER = "cover"
ROLE_TORSION = "torsion"
ROLE_PARITY = "parity"


# ---------------------------------------------------------------------------
# systole witness and the same-systole family

def systole_field_q(B: QuaternionAlgebraQ, cap: float) -> QuadFieldQ:
    """The real quadratic field realizing the shortest geodesic of B, if any
    appears below the cap."""
    res = exact_systole_q(B, MODE_PAPER, cap)
    if not res.found:
        raise NoCandidateError(
            f"no geodesic of length below {cap} for ramification set {B.ram_sorted}")
    return res.field


@dataclass(frozen=True)
class FamilyEntry:
    """One member of a same-systole family: the base set plus {p0, pi}."""

    index: int
    ram: tuple[int, ...]
    factor: int
    p0: int
    pi: int
    embeds_certified: bool
    torsion_inherited: bool | None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "ram": list(self.ram),
            "factor": self.factor,
            "p0": self.p0,
            "pi": self.pi,
            "embeds_certified": self.embeds_certified,
            "torsion_inherited": self.torsion_inherited,
        }


def _nonsplit_primes(L: QuadFieldQ, exclude: frozenset[int]):
    """Primes not in `exclude` and not split in L, ascending."""
    p = 1
    while True:
        p += 1
        if not is_prime(p):
            continue
        if p in exclude:
            continue
        if _disc_symbol(L.d, p) != 1:
            yield p


def same_systole_family_q(B: QuaternionAlgebraQ, L: QuadFieldQ,
                          count: int) -> list[FamilyEntry]:
    """`count` algebras containing ram(B) whose systole field is still L.

    Adjoins p0 (the smallest prime outside ram(B) that is non-split in L) and
    then the next such primes p1 < p2 < ...; each entry satisfies the exact
    identity factor(ram_i) = factor(B) * (p0 - 1) * (pi - 1).  B must be
    admissible, as for exact_systole_q.
    """
    require_admissible(B)
    count = check_int(count, "count", 0)
    if not embeds_q(L, B):
        raise InputError(
            f"field d={L.d} does not embed into the base algebra {B.ram_sorted}")
    base = B.ram
    base_factor = math.prod(p - 1 for p in base)
    base_torsion_free = torsion_free_q(B)
    gen = _nonsplit_primes(L, base)
    p0 = next(gen)
    entries = []
    for i in range(1, count + 1):
        pi = next(gen)
        ram = tuple(sorted(base | {p0, pi}))
        algebra = algebra_q(ram)
        factor = math.prod(p - 1 for p in ram)
        if factor != base_factor * (p0 - 1) * (pi - 1):
            raise SysarithError(
                f"factor {factor} of {ram} breaks the identity "
                f"{base_factor} * ({p0} - 1) * ({pi} - 1)")
        entries.append(FamilyEntry(
            index=i, ram=ram, factor=factor, p0=p0, pi=pi,
            embeds_certified=embeds_q(L, algebra),
            torsion_inherited=torsion_free_q(algebra) if base_torsion_free else None,
        ))
    return entries


def growth_check(family: list[FamilyEntry]) -> float:
    """Observed constant c_obs = max over i >= 2 of factor_i/(i^2 * factor_{i-1})."""
    if len(family) < 2:
        raise InputError("growth check needs at least 2 family entries")
    c_obs = 0.0
    for prev, cur in zip(family, family[1:]):
        c_obs = max(c_obs, cur.factor / (cur.index ** 2 * prev.factor))
    return c_obs


# ---------------------------------------------------------------------------
# greedy cover algebras

@dataclass(frozen=True)
class CoverResult:
    """An algebra obstructing every field below a discriminant bound."""

    algebra: object  # QuaternionAlgebraQ or QuaternionAlgebraQi
    fields: tuple
    certificate: dict  # field -> splitting member of the ramification set
    roles: tuple  # (member, role); role in {cover, torsion, parity}
    exact: bool = False

    @property
    def factor(self) -> int:
        return area_factor(self.algebra)

    def to_json(self) -> dict:
        return {
            "ram": [_member_json(m) for m in self.algebra.ram_sorted],
            "factor": self.factor,
            "fields": [f.to_json() for f in self.fields],
            "certificate": [
                {"field": f.to_json(), "witness": _member_json(w)}
                for f, w in self.certificate.items()
            ],
            "roles": [{"member": _member_json(m), "role": r} for m, r in self.roles],
            "exact": self.exact,
        }


def real_fields_with_disc_below(bound: float) -> list[QuadFieldQ]:
    """All real quadratic fields with fundamental discriminant <= bound,
    ascending d, read from a squarefree sieve up to bound."""
    check_real(bound, "bound")
    d = np.flatnonzero(_accel.squarefree_up_to(max(math.floor(bound), 1)))
    disc = np.where(d % 4 == 1, d, 4 * d)
    keep = (d >= 2) & (disc <= bound)
    return [QuadFieldQ(*f) for f in zip(d[keep].tolist(), disc[keep].tolist())]


def _greedy_cover(words, n_bits):
    """Greedy max-coverage of bits [0, n_bits) over the rows of a uint64
    word matrix; returns the picked row indices in order, or None if some
    bit is in no row.

    Each round counts every row's uncovered bits one word column at a time,
    and argmax takes the first row of the highest count, so ties go to the
    earliest (smallest) item.
    """
    full = _full(n_bits)
    uncovered = full.copy()
    counts = np.empty(len(words), dtype=np.int64)
    picks = []
    while uncovered.any():
        counts[:] = 0
        for w in np.flatnonzero(uncovered):
            counts += np.bitwise_count(words[:, w] & uncovered[w])
        if not counts.any():
            return None  # some field uncoverable in this window
        picks.append(int(counts.argmax()))
        uncovered &= ~words[picks[-1]]
    # drop picks made redundant by later picks (keeps irredundancy exact)
    kept = list(picks)
    for i in reversed(range(len(kept))):
        rest = np.bitwise_or.reduce(words[kept[:i] + kept[i + 1:]], axis=0)
        if not (full & ~rest).any():
            del kept[i]
    return kept


def _cover_bound(x: float) -> float:
    """The discriminant bound e^(2+2x) of a cover, for a valid x."""
    check_real(x, "x", 0)
    bound = math.exp(2.0 + 2.0 * x)
    if bound > _DISC_CAP:
        raise InputError(f"discriminant bound e^(2+2x) = {bound:.3g} exceeds "
                         f"the supported cap {_DISC_CAP}")
    return bound


def _greedy_roles(n_fields: int, window: int, rows_in, torsion) -> list:
    """The (member, role) list of a greedy cover of n_fields fields.

    rows_in(window) gives the split rows, as words, of the primes (or
    ideals) up to the window, then those members ascending, a list built
    after the rows.  The window doubles until the greedy cover of its rows
    covers every field; its picks are the cover members, in member order.
    The torsion conditions (those of quaternion.py, or () for none) that no
    cover member meets are met by one more member: the first of the window
    that meets them all, which the first window holds (13 over Q, the
    norm-49 ideal over Q(i)).  Parity members, the first not yet taken, make
    the set even.
    """
    while True:
        words, members = rows_in(window)
        picks = _greedy_cover(words, n_fields)
        if picks is not None:
            break
        if window > 64 * _DISC_CAP:
            raise NoCandidateError(f"no window up to {window} covers all {n_fields} fields")
        window *= 2
    roles = [(members[i], ROLE_COVER) for i in sorted(picks)]
    missing = _unmet(torsion, [m for m, _ in roles])
    if missing:
        addition = next((m for m in members if all(c(m) for c in missing)), None)
        if addition is None:
            raise SysarithError(f"internal: no member up to {window} meets the "
                                "missing torsion conditions")
        roles.append((addition, ROLE_TORSION))
    while len(roles) < 2 or len(roles) % 2 != 0:
        taken = [m for m, _ in roles]
        roles.append((next(m for m in members if m not in taken), ROLE_PARITY))
    return roles


def cover_algebra_2d(x: float, require_torsion_free: bool = False,
                     exact: bool = False) -> CoverResult:
    """An admissible prime set in which every real quadratic field with
    fundamental discriminant <= e^(2+2x) has a split prime, with certificate.

    Greedy (x <= 4.5) by default; `exact` (x <= 1.5) finds the minimal-factor set.
    """
    bound = _cover_bound(x)
    # the caps guard time: greedy holds one Legendre row per prime
    # discriminant and one copy of the split rows, so x = 4.5 peaks at 90 MB,
    # but it takes 0.8-1.5 s, and its rows grow about as e^(4+4x)
    kind, cap = ("exact", 1.5) if exact else ("greedy", 4.5)
    if x > cap:
        raise InputError(f"{kind} cover is supported only for x <= {cap}, got {x}")
    fields = real_fields_with_disc_below(bound)
    discs = [f.disc for f in fields]
    if exact:
        _, sets, _ = _minimal_sets(discs, require_torsion_free)
        roles = [(p, ROLE_COVER) for p in sets[0]]
    else:
        def rows_in(window):
            """The split rows of the primes up to window, and those primes.
            A wider window reads every symbol again; the first window
            covers at every x = 0, 0.25, ..., 4.5, with and without the
            torsion conditions."""
            primes = _accel.primes_up_to(window)
            return _accel.build_split_masks(primes, discs), primes.tolist()

        window = max(1000, 3 * max(discs, default=0))
        roles = _greedy_roles(len(fields), window, rows_in,
                              TORSION_Q if require_torsion_free else ())
    algebra = algebra_q(m for m, _ in roles)
    return CoverResult(algebra=algebra, fields=tuple(fields),
                       certificate=_certify_q(algebra.ram_sorted, fields),
                       roles=tuple(roles), exact=bool(exact))


def cover_algebra_3d(x: float, require_torsion_free: bool = False) -> CoverResult:
    """An admissible Gaussian prime-ideal set in which every quadratic
    extension of Q(i) with relative discriminant norm <= e^(2+2x) has a split
    ideal, with certificate.  Greedy, for x <= 4.5.
    """
    bound = _cover_bound(x)
    # the extension list and the ideal rows took 14 s and 111 MB at x = 4.5,
    # and 101 s and 499 MB at x = 5 (2-vCPU VM)
    if x > 4.5:
        raise InputError(f"greedy cover over Q(i) is supported only for x <= 4.5, got {x}")
    exts, cols = _exts_and_columns(bound)

    def rows_in(window):
        pool = gaussian_primes_up_to_norm(window)
        return _split_rows_qi(pool, cols), pool

    window = max(200, 3 * max((e.rel_disc_norm for e in exts), default=0))
    roles = _greedy_roles(len(exts), window, rows_in,
                          TORSION_QI if require_torsion_free else ())
    algebra = algebra_qi(m for m, _ in roles)
    return CoverResult(algebra=algebra, fields=tuple(exts),
                       certificate=_certify_qi(algebra.ram_sorted, exts),
                       roles=tuple(roles))


# ---------------------------------------------------------------------------
# explicit bound evaluators

def primorial_log_bound(x: float) -> float:
    """log of the primorial of x (sum of log p over primes p <= x)."""
    check_real(x, "x", 2)
    if x > _PRIMORIAL_CAP:
        raise InputError(f"x = {x:.3g} exceeds the supported cap {_PRIMORIAL_CAP}")
    primes = _accel.primes_up_to(int(x))
    return float(np.sum(np.log(primes.astype(np.float64))))


def theorem_area_log_bound_2d(x: float, c1: float, c2: float) -> float:
    """log of the area majorant pi/3 times the primorial of 2*c1*e^((2+2x)*c2)."""
    check_real(x, "x", 0)
    check_real(c1, "c1", 1)
    check_real(c2, "c2", 1)
    threshold = 2.0 * c1 * math.exp((2.0 + 2.0 * x) * c2)
    return math.log(math.pi / 3.0) + primorial_log_bound(threshold)


def multiquadratic_discriminant(a_list) -> tuple[int, int]:
    """(|disc|, r) of the multiquadratic field generated by sqrt of each a_i,
    where |disc| = (2^r * rad(prod a_i))^(2^(m-1)).

    Computed from the product of the discriminants of the 2^m - 1 quadratic
    subfields; r, in {0, 2, 3}, is read off the 2-adic valuations of that
    product and of rad, and one exact power checks the shape.
    """
    a = [check_int(ai, "generator") for ai in a_list]
    m = len(a)
    if m == 0:
        raise InputError("need at least one generator")
    if m > 16:
        raise InputError(f"at most 16 generators supported, got {m}")
    if len(set(a)) != m:
        raise InputError(f"generators must be distinct, got {a}")
    for ai in a:
        if ai == 0 or not is_squarefree(abs(ai)):
            raise InputError(f"generators must be nonzero squarefree, got {ai}")
    part = [1]  # part[bits]: the squarefree part of the product of the a_i in bits
    prod_discs = 1
    for bits in range(1, 1 << m):
        low = bits & -bits
        rest, ai = part[bits ^ low], a[low.bit_length() - 1]
        part.append(rest * ai // math.gcd(rest, ai) ** 2)  # both are squarefree
        if part[bits] == 1:
            raise InputError(
                f"generators are multiplicatively dependent mod squares: {a}")
        prod_discs *= abs(fundamental_discriminant(part[bits]))
    rad = math.lcm(*(abs(ai) for ai in a))  # every a_i is squarefree
    v2_disc, v2_rad = ((n & -n).bit_length() - 1 for n in (prod_discs, rad))
    r = (v2_disc >> (m - 1)) - v2_rad
    if r not in (0, 2, 3) or (rad << r) ** (1 << (m - 1)) != prod_discs:
        raise InputError(f"discriminant {prod_discs} does not match the "
                         f"(2^r * rad)^(2^(m-1)) shape for generators {a}")
    return prod_discs, r


def silverman_disc_bound(n: int, x: float, absolute_qi: bool = False) -> float:
    """The discriminant-norm bound e^(2(n+x)) for degree-n base fields; the
    absolute form over Q(i) (n = 2) is 16 * e^(2(2+x))."""
    n = check_int(n, "degree n", 1)
    check_real(x, "x", 0)
    if absolute_qi:
        if n != 2:
            raise InputError("the absolute Q(i) form requires n = 2")
        return 16.0 * math.exp(2.0 * (2.0 + x))
    return math.exp(2.0 * (n + x))
