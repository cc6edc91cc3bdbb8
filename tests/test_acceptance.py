"""Acceptance gate: one pass/fail line per frozen reference claim.

Each criterion below re-derives the reference tables and properties from
scratch through the library's public API and compares against the frozen
reference values at the stated tolerances.  Four reference rows were
mis-copied (surface rows l=2.25 and l=2.5, volume rows l=1.6 and l=2.5)
and one exact systole was mis-copied ({2,31}); each corrected value is
re-derived below by an oracle-only test that fails on the old value, and
CHANGES.md records the old value with its evidence.
"""

import itertools
import math
import os
import random

import pytest

from sysarith import gaussian
from sysarith.constructions import (
    ROLE_COVER,
    cover_algebra_2d,
    growth_check,
    multiquadratic_discriminant,
    primorial_log_bound,
    same_systole_family_q,
)
from sysarith.gaussian import (
    GaussianInt,
    gaussian_primes_up_to_norm,
    ideal_above,
    quad_ext,
    quad_exts_with_disc_below,
    quad_residue_symbol,
    splitting_in_ext,
)
from sysarith.geodesics import MODE_PAPER, exact_systole_q
from sysarith.quaternion import (
    algebra_q,
    algebra_qi,
    excluded_fields_subset,
    torsion_free_q,
)
from sysarith.real_quadratic import (
    SPLIT,
    is_squarefree,
    kronecker,
    kronecker_symbol,
    quad_field,
    splitting_type_q,
)
from sysarith.search import minimal_algebra_2d, verify_exclusion_3d
from sysarith.volume import volume_constant_qi, volume_qi

from oracles import (
    biquadratic_rel_disc_norm,
    brute_catalan,
    brute_fields_with_regulator_below,
    brute_is_squarefree,
    brute_short_traces_qi,
    brute_squarefree_part,
    brute_splitting_q,
    brute_symbol_qi,
    lattice_zeta_qi,
    naive_prime_sets,
    sieve_primes,
)

EXTENDED = os.environ.get("SYSARITH_EXTENDED") == "1"


# ---------------------------------------------------------------------------
# criterion 1: surface table, base rows (exact integers, listed set a minimizer)

SURFACE_ROWS = [
    (0.5, 10, (2, 11)),
    (1.0, 30, (2, 31)),
    (1.25, 60, (3, 31)),
    (1.5, 120, (2, 3, 7, 11)),
    (1.75, 480, (3, 5, 7, 11)),
    (2.0, 480, (3, 5, 7, 11)),
    (2.25, 1560, (2, 3, 7, 131)),
    (2.5, 2240, (2, 3, 17, 71)),
    (2.75, 5760, (2, 3, 5, 7, 11, 13)),
    (3.0, 6048, (2, 7, 29, 37)),
]


@pytest.mark.parametrize("l,factor,listed", SURFACE_ROWS,
                         ids=[f"l={r[0]}" for r in SURFACE_ROWS])
def test_criterion_1_surface_table(l, factor, listed):
    res = minimal_algebra_2d(l)
    assert res.exhaustive
    assert res.factor == factor, (
        f"optimal factor at l={l}: computed {res.factor} "
        f"(sets {res.sets}), reference value {factor}")
    assert tuple(sorted(listed)) in res.sets, (
        f"reference set {listed} is not among the minimizers {res.sets} "
        f"at l={l}")


# ---------------------------------------------------------------------------
# criterion 2: extended surface rows (opt-in; ~minutes per row)

EXTENDED_ROWS = [
    (3.25, 31680, (2, 3, 5, 7, 11, 67)),
    (3.5, 58880, (2, 3, 5, 11, 17, 47)),
    (3.75, 114048, (2, 3, 5, 19, 23, 27)),
    (4.0, 855360, (2, 3, 19, 23, 31, 37)),
    (4.25, 1866240, (2, 3, 7, 37, 61, 73)),
    (4.5, 1866240, (2, 3, 7, 37, 61, 73)),
    (4.75, 24520320, (2, 7, 11, 23, 109, 173)),
    (5.0, 51517440, (2, 3, 5, 7, 11, 13, 53, 173)),
]


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set SYSARITH_EXTENDED=1 to enable")
@pytest.mark.parametrize("l,factor,listed", EXTENDED_ROWS,
                         ids=[f"l={r[0]}" for r in EXTENDED_ROWS])
def test_criterion_2_surface_table_extended(l, factor, listed):
    res = minimal_algebra_2d(l)
    assert res.exhaustive
    assert res.factor == factor, (
        f"optimal factor at l={l}: computed {res.factor} "
        f"(sets {res.sets}), reference value {factor}")
    assert tuple(sorted(listed)) in res.sets, (
        f"reference set {listed} is not among the minimizers {res.sets} "
        f"at l={l}")


# ---------------------------------------------------------------------------
# criterion 3: 3-manifold volumes at printed precision

VOLUME_ROWS = [
    (1.0, (2, 5, 9, 13), "117.24"),
    (1.1, (2, 5, 5, 9, 13, 13), "5627.69"),
    (1.2, (2, 5, 5, 9, 13, 13), "5627.69"),
    (1.3, (2, 5, 5, 9, 13, 29), "13131.28"),
    (1.4, (2, 5, 5, 9, 13, 29), "13131.28"),
    (1.5, (2, 5, 5, 13, 17, 61), "56276.93"),
    (1.6, (2, 5, 5, 17, 29, 37), "78787.69"),
    (1.7, (2, 5, 5, 29, 41, 73), "393938.4"),
    (1.8, (2, 9, 13, 17, 29, 53), "682826.70"),
    (1.9, (2, 9, 13, 17, 29, 53), "682826.70"),
    (2.0, (2, 5, 5, 9, 17, 41, 41, 49), "48022976.94"),
    (2.1, (2, 5, 5, 9, 17, 41, 41, 49), "48022976.94"),
    (2.2, (2, 5, 9, 17, 37, 41, 41, 49), "4.3221e8"),
    (2.3, (2, 5, 13, 37, 37, 41, 41, 49), "1.4587e9"),
    (2.4, (2, 5, 13, 37, 37, 41, 41, 49), "1.4587e9"),
    (2.5, (5, 17, 17, 29, 29, 37, 41, 49), "1.6943e10"),
    (2.6, (2, 5, 5, 9, 13, 17, 29, 41, 49, 53), "2.0977e10"),
    (2.7, (2, 5, 5, 9, 13, 17, 29, 41, 49, 53), "2.0977e10"),
    (2.8, (2, 5, 5, 9, 13, 17, 29, 53, 61, 61), "3.9331e10"),
    (2.9, (2, 5, 5, 9, 13, 17, 29, 53, 61, 61), "3.9331e10"),
    (3.0, (2, 5, 5, 9, 17, 49, 73, 89, 89, 97), "1.6066e12"),
]


def test_criterion_3_exclusions_do_not_depend_on_call_order(monkeypatch):
    # the process keeps the extension walk's columns and slices them;
    # climbing the ladder grows them, descending it walks them once
    reports = {}
    for order in ("ascending", "descending"):
        monkeypatch.setattr(gaussian, "_exts_memo", gaussian._EMPTY_MEMO)
        rows = sorted(VOLUME_ROWS, reverse=order == "descending")
        reports[order] = {l: verify_exclusion_3d(norms, l).to_json()
                          for l, norms, _ in rows}
    assert reports["ascending"] == reports["descending"]


def conjugate_assignments(norms):
    """Every tuple of distinct prime ideals of Z[i] realizing a multiset of
    ideal norms: one choice per conjugate pair for a split norm listed once."""
    counts = {}
    for n in norms:
        counts[n] = counts.get(n, 0) + 1
    options = []
    for n, m in sorted(counts.items()):
        r = math.isqrt(n)
        if n == 2:
            options.append([(ideal_above(2),)])
        elif r * r == n and r % 4 == 3:
            options.append([(ideal_above(r),)])
        elif m == 1:
            options.append([(ideal_above(n),),
                            (ideal_above(n, conjugate=True),)])
        else:
            options.append([(ideal_above(n), ideal_above(n, conjugate=True))])
    for combo in itertools.product(*options):
        yield tuple(P for group in combo for P in group)


def algebra_from_norms(norms):
    """Build a ramification set realizing a multiset of ideal norms."""
    return algebra_qi(list(next(conjugate_assignments(norms))))


def printed_tolerance(printed):
    """One unit in the last printed place; for scientific rows, one unit of
    the 5-digit mantissa."""
    if "e" in printed:
        return 10.0 ** (math.floor(math.log10(float(printed))) - 4)
    return 10.0 ** (-len(printed.split(".")[1]))


@pytest.mark.parametrize("l,norms,printed", VOLUME_ROWS,
                         ids=[f"l={r[0]}" for r in VOLUME_ROWS])
def test_criterion_3_volume_table(l, norms, printed):
    vol = volume_qi(algebra_from_norms(norms))
    tol = printed_tolerance(printed)
    assert abs(vol - float(printed)) <= tol * (1 + 1e-9), (
        f"volume for norms {norms} at l={l}: computed {vol!r}, "
        f"reference value {printed} (tolerance {tol:g})")


# ---------------------------------------------------------------------------
# criterion 4: reference 3-manifold rows have no geodesic shorter than l
#
# A loxodromic element of trace t in Z[i] has length 2*Re arccosh(t/2) (the
# 3-manifold convention of sysarith.geodesics: twice the surface length) and
# lies in the field Q(i)(sqrt(t^2 - 4)).  If, for some conjugate assignment
# of the norms, every such field with length < l is split by a ramified
# ideal, none of them embeds and the systole is at least l.  This is the
# claim itself, not verify_exclusion_3d: that function tests every
# extension with relative discriminant norm <= e^(2(l+2)), a sufficient but
# far larger list, so valid=False there does not show a short geodesic.
#
# Not covered: minimality.  Under this length convention much smaller
# multisets pass too, e.g. (2, 9) at l=1.0, so the table's least-volume
# claims are not reproduced here and no test asserts them.

EXCLUSION_ROWS = [
    (1.0, (2, 5, 9, 13)),
    (1.5, (2, 5, 5, 13, 17, 61)),
]


def short_trace_ext(t):
    """Q(i)(sqrt(t^2 - 4)) for the trace t = (a, b)."""
    a, b = t
    return quad_ext(GaussianInt(a * a - b * b - 4, 2 * a * b))


def short_trace_escapes(norms, l):
    """Per conjugate assignment, the first (t, length, extension) of a trace
    shorter than l whose field no ramified ideal splits, or None."""
    short = [(t, length, short_trace_ext(t))
             for t, length in brute_short_traces_qi(l)]
    return [next((s for s in short
                  if not any(splitting_in_ext(P, s[2]) == SPLIT
                             for P in ideals)), None)
            for ideals in conjugate_assignments(norms)]


@pytest.mark.parametrize("l,norms", EXCLUSION_ROWS,
                         ids=[f"l={r[0]}" for r in EXCLUSION_ROWS])
def test_criterion_4_exclusion_validity(l, norms):
    escapes = short_trace_escapes(norms, l)
    assert None in escapes, (
        f"norm multiset {norms} leaves a geodesic shorter than l={l} under "
        f"every one of the {len(escapes)} conjugate assignments; "
        f"(trace, length, delta): "
        f"{sorted({(t, round(x, 6), str(e.delta)) for t, x, e in escapes})}")


@pytest.mark.parametrize("l,norms,norm,length", [
    (1.0, (2, 5, 13, 13), 25, 0.962424),  # Q(i)(sqrt(-5)), trace +-i
    (1.5, (2, 5, 9, 13), 20, 1.061275),   # Q(i)(sqrt(+-1+2i)), trace -1+-i
], ids=["l=1.0", "l=1.5"])
def test_criterion_4_rejects_short_geodesics(l, norms, norm, length):
    escapes = short_trace_escapes(norms, l)
    assert None not in escapes
    for _, x, ext in escapes:
        assert ext.rel_disc_norm == norm
        assert x == pytest.approx(length, abs=1e-6)
    if norm == 25:
        assert {ext for _, _, ext in escapes} == {quad_ext(-5)}


def test_criterion_4_checked_list_holds_every_short_trace():
    # verify_exclusion_3d tests the extensions of relative discriminant norm
    # <= e^(2(l+2)); each short-trace field must be among them, so that its
    # valid=True still implies systole >= l
    exts = quad_exts_with_disc_below(math.exp(2 * (VOLUME_ROWS[-1][0] + 2)))
    for l, _, _ in VOLUME_ROWS:
        bound = math.exp(2 * (l + 2))
        checked = {e for e in exts if e.rel_disc_norm <= bound}
        for t, _ in brute_short_traces_qi(l):
            assert short_trace_ext(t) in checked, (l, t)


# ---------------------------------------------------------------------------
# criterion 5: systole certificates for the reference surface rows

@pytest.mark.parametrize("l,factor,listed", SURFACE_ROWS,
                         ids=[f"l={r[0]}" for r in SURFACE_ROWS])
def test_criterion_5_systole_meets_bound(l, factor, listed):
    res = exact_systole_q(algebra_q(list(listed)), MODE_PAPER, l + 2)
    assert res.found, f"no geodesic below {l + 2} for {listed}"
    assert res.length >= l, (
        f"systole of {listed} is {res.length:.6f} via d={res.field.d}, "
        f"below the claimed bound {l}")


# (ramification, systole, field realizing it)
EXACT_SYSTOLE_ROWS = [((2, 11), 0.881374, 2), ((2, 31), 1.194763, 13)]


@pytest.mark.parametrize("ram,expected,d", EXACT_SYSTOLE_ROWS,
                         ids=["ram={2,11}", "ram={2,31}"])
def test_criterion_5_exact_values(ram, expected, d):
    res = exact_systole_q(algebra_q(list(ram)), MODE_PAPER, 5.0)
    assert res.found
    assert abs(res.length - expected) <= 1e-5 and res.field.d == d, (
        f"systole of {ram} is {res.length:.6f} via d={res.field.d}, "
        f"expected {expected} via d={d}")


# ---------------------------------------------------------------------------
# evidence for the corrected reference rows: oracles only, no package code

def oracle_obstructs(ram, d):
    return any(brute_splitting_q(d, p) == "split" for p in ram)


def oracle_minimizers(l, factor_bound):
    """(least factor, its sets) over prime sets of factor <= factor_bound that
    obstruct every field with regulator < l."""
    fields = [d for d, _ in brute_fields_with_regulator_below(l)]
    passing = [(math.prod(p - 1 for p in s), s)
               for k in (2, 4, 6, 8)
               for s in naive_prime_sets(factor_bound + 1, k)
               if all(oracle_obstructs(s, d) for d in fields)]
    least = min((f for f, _ in passing), default=None)
    return least, [s for f, s in passing if f == least]


@pytest.mark.parametrize("l", [2.25, 2.5])
def test_oracle_surface_row_is_the_unique_minimum(l):
    _, factor, listed = next(r for r in SURFACE_ROWS if r[0] == l)
    assert oracle_minimizers(l, factor) == (factor, [listed])


def test_oracle_old_surface_rows_fail():
    fields = dict(brute_fields_with_regulator_below(2.5))
    # old l=2.25 row (2,3,13,41): Q(sqrt 15), regulator log(4+sqrt 15), embeds
    assert fields[15] == pytest.approx(math.log(4 + math.sqrt(15)))
    assert fields[15] < 2.25 and not oracle_obstructs((2, 3, 13, 41), 15)
    # old l=2.5 row (2,3,7,17): factor 192, not 2240; Q(sqrt 5) embeds
    assert math.prod(p - 1 for p in (2, 3, 7, 17)) == 192
    open_fields = [d for d in fields if not oracle_obstructs((2, 3, 7, 17), d)]
    assert open_fields == [3, 5, 6]
    assert fields[5] == pytest.approx(0.481212, abs=1e-6)


@pytest.mark.parametrize("ram,expected,d", EXACT_SYSTOLE_ROWS,
                         ids=["ram={2,11}", "ram={2,31}"])
def test_oracle_exact_systole(ram, expected, d):
    length, witness = min(
        (r, e) for e, r in brute_fields_with_regulator_below(5.0)
        if not oracle_obstructs(ram, e))
    assert abs(length - expected) <= 1e-5 and witness == d


def oracle_volume(norms):
    """Catalan/3 * prod(N - 1): zeta_{Q(i)}(2) * 8 / (4 pi^2) = Catalan/3."""
    return brute_catalan() / 3 * math.prod(n - 1 for n in norms)


def test_oracle_volume_rows_nondecreasing():
    # the least volume with systole >= l cannot fall as l grows
    vols = [oracle_volume(norms) for _, norms, _ in VOLUME_ROWS]
    assert vols == sorted(vols)


@pytest.mark.parametrize("l,old", [
    (1.6, (2, 5, 5, 17, 29, 53)),
    (2.5, (5, 17, 17, 29, 37, 41, 41, 49)),
], ids=["l=1.6", "l=2.5"])
def test_oracle_volume_row_is_the_one_entry_correction(l, old):
    # exactly one realizable single-entry edit of the printed multiset gives
    # the printed volume, and it is the corrected row
    _, norms, printed = next(r for r in VOLUME_ROWS if r[0] == l)
    ideal_norms = ([2] + [p for p in sieve_primes(400) if p % 4 == 1]
                   + [q * q for q in sieve_primes(20) if q % 4 == 3])

    def realizable(ms):
        return all(ms.count(n) <= (2 if n % 4 == 1 and math.isqrt(n) ** 2 != n
                                   else 1) for n in ms)

    tol = printed_tolerance(printed)
    edits = {tuple(sorted(old[:i] + (n,) + old[i + 1:]))
             for i in range(len(old)) for n in ideal_norms}
    matching = {ms for ms in edits if realizable(ms)
                and abs(oracle_volume(ms) - float(printed)) <= tol * (1 + 1e-9)}
    assert matching == {norms}


# ---------------------------------------------------------------------------
# criterion 6: same-systole family over the base {3,5,7,11}

def test_criterion_6_family():
    base = algebra_q([3, 5, 7, 11])
    field = quad_field(77)
    entries = same_systole_family_q(base, field, 5)
    assert len(entries) == 5
    base_factor = 480
    for e in entries:
        assert e.factor == base_factor * (e.p0 - 1) * (e.pi - 1)
        assert e.embeds_certified is True
    assert len({e.ram for e in entries}) == 5
    c_obs = growth_check(entries)
    assert math.isfinite(c_obs) and c_obs > 0


# ---------------------------------------------------------------------------
# criterion 7: oracle-equivalence property suites

def test_criterion_7_symbols_vs_brute():
    cases = 0
    for p in sieve_primes(200):
        if p == 2:
            continue
        for a in range(-111, 112):
            euler = pow(a % p, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert kronecker(a, p) == expected, (a, p)
            cases += 1
    # the field symbol applies the same machinery to the fundamental
    # discriminant; spot-check it against an independent reconstruction
    for p in sieve_primes(60):
        if p == 2:
            continue
        for d in range(2, 80):
            s = brute_squarefree_part(d)
            disc = s if s % 4 == 1 else 4 * s
            euler = pow(disc % p, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert kronecker_symbol(d, p) == expected, (d, p)
            cases += 1
    for P in gaussian_primes_up_to_norm(50):
        if P.norm % 2 == 0:
            continue
        p = P.norm if P.kind == "split" else P.gen.a
        for a in range(-3, 4):
            for b in range(-3, 4):
                delta = GaussianInt(a, b)
                if delta.norm == 0 or delta.norm % P.norm == 0:
                    continue
                got = quad_residue_symbol(delta, P)
                want = 1 if brute_symbol_qi(a, b, P.gen.a, P.gen.b,
                                            p) == "split" else -1
                assert got == want, (a, b, str(P.gen))
                cases += 1
    assert cases >= 10_000


def test_criterion_7_relative_discriminants():
    checked = 0
    for m in range(-50, 51):
        if m in (0, 1, -1) or not brute_is_squarefree(abs(m)):
            continue
        ext = quad_ext(GaussianInt(m, 0))
        assert ext.rel_disc_norm == biquadratic_rel_disc_norm(m), m
        checked += 1
    assert checked >= 50
    # cyclotomic-style anchors: the degree-4 fields Q(i, sqrt(m)) for
    # m = 2, 3, 5 have absolute discriminants 256, 144, 400, which equal
    # 16 times the relative discriminant norms computed here
    for m, disc, r in [(2, 256, 3), (3, 144, 2), (5, 400, 2)]:
        assert multiquadratic_discriminant([m, -1]) == (disc, r)
        assert 16 * quad_ext(GaussianInt(m, 0)).rel_disc_norm == disc


def test_criterion_7_primorial_inequality():
    log4 = math.log(4.0)
    total = 0.0
    for p in sieve_primes(100_000):
        total += math.log(p)
        assert total < p * log4, p
    # spot-check the library evaluator against the running sum
    assert primorial_log_bound(100_000) == pytest.approx(total, rel=1e-12)
    assert primorial_log_bound(2) == pytest.approx(math.log(2), rel=1e-12)


def test_criterion_7_volume_constant_vs_lattice_sum():
    approx = lattice_zeta_qi(100_000) * 8 / (4 * math.pi ** 2)
    assert abs(volume_constant_qi() - approx) <= 1e-5


def test_criterion_7_obstruction_monotonicity():
    rng = random.Random(0x5751)
    primes = [p for p in sieve_primes(300)]
    q_pool = [quad_field(d) for d in range(2, 80) if is_squarefree(d)]
    qi_pool = quad_exts_with_disc_below(400.0)
    ideals = gaussian_primes_up_to_norm(120)
    checked = 0
    for _ in range(50):
        big = rng.sample(primes, rng.choice([4, 6]))
        small = rng.sample(big, 2)
        assert excluded_fields_subset(algebra_q(small), algebra_q(big), q_pool)
        checked += 1
    for _ in range(50):
        big = rng.sample(ideals, rng.choice([4, 6]))
        small = rng.sample(big, 2)
        assert excluded_fields_subset(algebra_qi(small), algebra_qi(big),
                                      qi_pool)
        checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# criterion 8: cover constructions

def test_criterion_8_base_covers():
    cover = cover_algebra_2d(0)
    assert sorted(cover.algebra.ram) == [2, 11]
    tf = cover_algebra_2d(0, require_torsion_free=True)
    assert sorted(tf.algebra.ram) == [11, 13]
    assert torsion_free_q(tf.algebra)


def test_criterion_8_certificates_reverify():
    for x in (0.0, 0.5, 1.0):
        for tf in (False, True):
            cover = cover_algebra_2d(x, require_torsion_free=tf)
            assert set(cover.certificate) == set(cover.fields)
            for field, witness in cover.certificate.items():
                assert witness in cover.algebra.ram
                assert brute_splitting_q(field.d, witness) == "split"
                assert splitting_type_q(field, witness) == "split"


def test_criterion_8_greedy_at_least_exact():
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        greedy = cover_algebra_2d(x)
        exact = cover_algebra_2d(x, exact=True)
        assert greedy.factor >= exact.factor, x
