"""Same-systole families, cover algebras, and explicit bound evaluators."""

import math

import numpy as np
import pytest

from sysarith import _accel, constructions, gaussian, search
from sysarith.constructions import (
    ROLE_COVER,
    ROLE_PARITY,
    ROLE_TORSION,
    cover_algebra_2d,
    cover_algebra_3d,
    growth_check,
    multiquadratic_discriminant,
    primorial_log_bound,
    real_fields_with_disc_below,
    same_systole_family_q,
    silverman_disc_bound,
    systole_field_q,
    theorem_area_log_bound_2d,
)
from sysarith.errors import (
    InadmissibleAlgebraError,
    InputError,
    NoCandidateError,
    SysarithError,
    check_real,
)
from sysarith.geodesics import MODE_PAPER, exact_systole_q
from sysarith.quaternion import algebra_q, embeds_q, is_admissible, torsion_free_q, torsion_free_qi
from sysarith.real_quadratic import (
    QuadFieldQ,
    fundamental_discriminant,
    is_squarefree,
    quad_field,
    splitting_type_q,
)

from oracles import (
    brute_even_split_qi,
    brute_splitting_q,
    brute_symbol_qi,
    greedy_cover_ints,
    int_words,
    naive_minimal_sets,
    sieve_primes,
)


def member_names(cover):
    return [str(m.gen) if hasattr(m, "gen") else m for m in cover.algebra.ram_sorted]


def test_systole_field():
    assert systole_field_q(algebra_q([2, 31]), 5.0).d == 13
    assert systole_field_q(algebra_q([3, 5, 7, 11]), 5.0).d == 17
    with pytest.raises(NoCandidateError):
        systole_field_q(algebra_q([2, 11]), 0.5)


def test_family_frozen_entries():
    fam = same_systole_family_q(algebra_q([3, 5, 7, 11]), quad_field(77), 5)
    assert [(e.index, e.p0, e.pi, e.factor) for e in fam] == [
        (1, 2, 29, 13440), (2, 2, 31, 14400), (3, 2, 43, 20160),
        (4, 2, 47, 22080), (5, 2, 59, 27840)]
    assert [e.ram for e in fam] == [
        (2, 3, 5, 7, 11, 29), (2, 3, 5, 7, 11, 31), (2, 3, 5, 7, 11, 43),
        (2, 3, 5, 7, 11, 47), (2, 3, 5, 7, 11, 59)]
    assert len({e.ram for e in fam}) == 5
    base_factor = 480
    for e in fam:
        assert e.factor == base_factor * (e.p0 - 1) * (e.pi - 1)
        assert e.embeds_certified is True
        assert e.torsion_inherited is True  # base has 5 = 1 mod 4, 7 = 1 mod 3
        assert embeds_q(quad_field(77), algebra_q(e.ram))
        assert is_admissible(algebra_q(e.ram))


def test_family_torsion_inherited_is_none_for_torsion_base():
    # {2,11} is not torsion-free, so inheritance is not reported
    fam = same_systole_family_q(algebra_q([2, 11]), quad_field(2), 2)
    assert all(e.torsion_inherited is None for e in fam)


def test_family_errors():
    with pytest.raises(InputError):
        same_systole_family_q(algebra_q([3, 5, 7, 11]), quad_field(77), -1)
    with pytest.raises(InputError):
        # 11 splits in Q(sqrt(5)), so the field does not embed in the base
        same_systole_family_q(algebra_q([2, 11]), quad_field(5), 3)
    assert same_systole_family_q(algebra_q([3, 5, 7, 11]), quad_field(77), 0) == []


@pytest.mark.parametrize("ram", [[3], [2, 3, 5]])
def test_family_refuses_an_inadmissible_base(ram):
    # exact_systole_q refuses these bases; given the field, the family
    # generator built three-prime sets such as {2,3,5} from the base {3}
    with pytest.raises(InadmissibleAlgebraError):
        same_systole_family_q(algebra_q(ram), quad_field(2), 2)


def test_growth_check():
    fam = same_systole_family_q(algebra_q([3, 5, 7, 11]), quad_field(77), 5)
    assert growth_check(fam) == pytest.approx(0.26785714285714285, rel=1e-15)
    # dominated by the first step: 14400 / (2^2 * 13440)
    assert growth_check(fam) == pytest.approx(14400 / (4 * 13440), rel=1e-15)
    with pytest.raises(InputError):
        growth_check(fam[:1])


def test_real_fields_with_disc_below():
    assert [f.d for f in real_fields_with_disc_below(10)] == [2, 5]
    assert [f.d for f in real_fields_with_disc_below(math.exp(2))] == [5]
    assert [f.d for f in real_fields_with_disc_below(30)] == [
        2, 3, 5, 6, 7, 13, 17, 21, 29]
    assert real_fields_with_disc_below(4) == []


def squarefree_scan(bound):
    """The field scan by testing each d for squarefreeness."""
    check_real(bound, "bound")
    return [QuadFieldQ(d, disc) for d in range(2, math.floor(bound) + 1)
            if (disc := fundamental_discriminant(d)) <= bound and is_squarefree(d)]


@pytest.mark.parametrize("bound", [0, 1, 2, 4.99, 5, 8, 12.5, math.exp(8), 10 ** 5])
def test_real_fields_with_disc_below_matches_the_squarefree_scan(bound):
    fields = real_fields_with_disc_below(bound)
    assert fields == squarefree_scan(bound)
    assert all(type(f.d) is int and type(f.disc) is int for f in fields)


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), "9"])
def test_real_fields_with_disc_below_refuses_what_the_scan_refuses(bound):
    with pytest.raises(InputError) as want:
        squarefree_scan(bound)
    with pytest.raises(InputError) as got:
        real_fields_with_disc_below(bound)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("x", [1, 2, 3])
def test_greedy_rows_built_a_word_at_a_time_equal_the_full_table_rows(x):
    discs = [f.disc for f in real_fields_with_disc_below(math.exp(2 + 2 * x))]
    primes = _accel.primes_up_to(3 * max(discs))
    spf = _accel.smallest_factor_table(max(discs))
    words = constructions._split_rows_q(primes, discs, spf)
    assert words.dtype == np.uint64
    assert np.array_equal(words, _accel.build_split_masks(primes, _accel.character_tables(discs)))
    if x == 3:
        assert (len(discs), words.shape[1]) == (905, 15)


def verify_cover_2d(cover):
    ram = cover.algebra.ram_sorted
    assert is_admissible(cover.algebra)
    assert set(cover.certificate) == set(cover.fields)
    for field, witness in cover.certificate.items():
        assert witness in ram
        assert brute_splitting_q(field.d, witness) == "split"
    # greedy cover members are irredundant: dropping one loses some field
    # (exact search labels every member "cover", so the check applies only
    # to greedy output)
    cover_members = [] if cover.exact else [
        m for m, role in cover.roles if role == ROLE_COVER]
    for m in cover_members:
        rest = [p for p in ram if p != m]
        assert any(
            all(splitting_type_q(f, p) != "split" for p in rest)
            for f in cover.fields), f"member {m} is redundant"


def test_cover_2d_base():
    cover = cover_algebra_2d(0)
    assert member_names(cover) == [2, 11]
    assert cover.factor == 10
    assert cover.roles == ((11, ROLE_COVER), (2, ROLE_PARITY))
    assert [f.d for f in cover.fields] == [5]
    assert cover.exact is False
    verify_cover_2d(cover)


def test_cover_2d_torsion_free():
    cover = cover_algebra_2d(0, require_torsion_free=True)
    assert member_names(cover) == [11, 13]
    assert cover.factor == 120
    assert cover.roles == ((11, ROLE_COVER), (13, ROLE_TORSION))
    assert torsion_free_q(cover.algebra)
    verify_cover_2d(cover)


def test_cover_2d_torsion_adds_the_first_prime_meeting_the_missing_condition():
    # 29 = 1 mod 4 covers; neither 29 nor 647 is 1 mod 3, so 7 is added
    cover = cover_algebra_2d(0.75, require_torsion_free=True)
    assert cover.roles == ((29, ROLE_COVER), (647, ROLE_COVER),
                           (7, ROLE_TORSION), (2, ROLE_PARITY))
    assert 29 % 4 == 1 and 29 % 3 != 1 and 647 % 3 != 1
    assert 7 % 3 == 1
    assert torsion_free_q(cover.algebra)
    verify_cover_2d(cover)


def test_cover_2d_exact():
    cover = cover_algebra_2d(0, exact=True)
    assert member_names(cover) == [2, 11]
    assert cover.factor == 10 and cover.exact is True
    cover = cover_algebra_2d(1, exact=True)
    assert member_names(cover) == [2, 3, 5, 241]
    assert cover.factor == 1920
    verify_cover_2d(cover)


def test_cover_2d_greedy_vs_exact():
    greedy_x1 = cover_algebra_2d(1)
    assert member_names(greedy_x1) == [83, 311]
    assert greedy_x1.factor == 25420
    verify_cover_2d(greedy_x1)
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        greedy = cover_algebra_2d(x)
        exact = cover_algebra_2d(x, exact=True)
        assert greedy.factor >= exact.factor, x
        verify_cover_2d(exact)


def test_cover_2d_errors():
    with pytest.raises(InputError):
        cover_algebra_2d(-0.1)
    with pytest.raises(InputError):
        cover_algebra_2d(float("nan"))
    with pytest.raises(InputError):
        cover_algebra_2d(8.0)  # disc bound beyond the supported cap
    with pytest.raises(InputError):
        cover_algebra_2d(2.0, exact=True)


def test_cover_2d_exact_refuses_a_large_x_before_the_field_scan(monkeypatch):
    # at x = 6 the scan of every disc up to e^14 took seconds before the
    # refusal; the cap is checked first, so the scanner is never called
    def scan(bound):
        raise AssertionError(f"scanned up to {bound} before refusing")

    monkeypatch.setattr(constructions, "real_fields_with_disc_below", scan)
    for x in (1.6, 5.0, 6.0):
        with pytest.raises(InputError, match="exact cover"):
            cover_algebra_2d(x, exact=True)


def test_cover_2d_greedy_refuses_a_large_x_before_the_field_scan(monkeypatch):
    # the greedy cover's time grows about as e^(4+4x); the cap is checked
    # before the scan
    def scan(bound):
        raise AssertionError(f"scanned up to {bound} before refusing")

    monkeypatch.setattr(constructions, "real_fields_with_disc_below", scan)
    for x in (4.51, 5.0, 7.0):
        with pytest.raises(InputError, match="greedy cover"):
            cover_algebra_2d(x)


@pytest.mark.parametrize("x", [0.5, 1.0, 1.5])
def test_cover_2d_chain_from_least_area_to_greedy(x, pell_fields_below_6):
    # the least factor with systole >= x, from the oracles, is at most the
    # exact cover's, which is at most the greedy cover's; the exact cover
    # leaves no field of regulator < x unobstructed, so its systole is >= x
    least = search.minimal_algebra_2d(x)
    exact = cover_algebra_2d(x, exact=True)
    greedy = cover_algebra_2d(x)
    short = [d for d, reg in pell_fields_below_6 if reg < x]
    assert least.factor == naive_minimal_sets(short, False)[0]
    assert least.factor <= exact.factor <= greedy.factor
    ram = exact.algebra.ram_sorted
    assert all(any(brute_splitting_q(d, p) == "split" for p in ram) for d in short)
    systole = exact_systole_q(exact.algebra, MODE_PAPER, 8.0)
    assert systole.found and systole.length >= x


def verify_cover_3d(cover):
    from sysarith.gaussian import splitting_in_ext

    ram = cover.algebra.ram_sorted
    assert is_admissible(cover.algebra)
    assert set(cover.certificate) == set(cover.fields)
    for ext, witness in cover.certificate.items():
        assert witness in ram
        if witness.norm % 2 == 0:
            assert brute_even_split_qi(ext.delta.a, ext.delta.b)
        else:
            p = witness.norm if witness.kind == "split" else witness.gen.a
            assert brute_symbol_qi(ext.delta.a, ext.delta.b,
                                   witness.gen.a, witness.gen.b, p) == "split"
    for m, role in cover.roles:
        if role != ROLE_COVER:
            continue
        rest = [P for P in ram if P != m]
        assert any(
            all(splitting_in_ext(P, e) != "split" for P in rest)
            for e in cover.fields), f"member {m.gen} is redundant"


def test_cover_3d_base():
    cover = cover_algebra_3d(0)
    assert member_names(cover) == ["1+1i", "2+1i"]
    assert cover.algebra.ram_norms == (2, 5)
    assert cover.fields == ()  # no extension has discriminant norm <= e^2
    assert all(role == ROLE_PARITY for _, role in cover.roles)


def test_cover_3d_torsion_free():
    cover = cover_algebra_3d(0, require_torsion_free=True)
    assert cover.algebra.ram_norms == (2, 49)
    assert torsion_free_qi(cover.algebra)  # 2 and 3 are both squares in F_49


def test_cover_3d_torsion_adds_the_first_ideal_meeting_the_missing_condition():
    # 3 is a square mod the norm-13 cover ideal but 2 is not (13 = 5 mod 8),
    # so the norm-9 ideal (3) is added: 2 = -1 = i^2 in F_9 = F_3[i]
    cover = cover_algebra_3d(0.25, require_torsion_free=True)
    assert [(str(m.gen), m.norm, role) for m, role in cover.roles] == [
        ("3+2i", 13, ROLE_COVER), ("3", 9, ROLE_TORSION)]
    (P, _), (added, _) = cover.roles

    def square(z, Q):
        p = Q.norm if Q.kind == "split" else Q.gen.a
        return brute_symbol_qi(z, 0, Q.gen.a, Q.gen.b, p) == "split"

    assert square(3, P) and not square(2, P)
    assert square(2, added)
    assert torsion_free_qi(cover.algebra)
    verify_cover_3d(cover)


def test_greedy_roles_raises_when_no_member_meets_the_torsion_conditions():
    with pytest.raises(SysarithError, match="torsion"):
        constructions._greedy_roles(1, 4, lambda window: (int_words([1, 0]), [2, 3]),
                                    (lambda m: False,))


def test_greedy_roles_doubles_the_window_and_drops_redundant_picks():
    # fields 1..6 as bits 0..5: rows {1,2,3,4}, {1,2,5} and {3,4,6}; the
    # first window lacks the third row, so field 6 is uncovered there
    members, rows = [2, 3, 5], [0b001111, 0b010011, 0b101100]
    windows = []

    def rows_in(window):
        windows.append(window)
        n = 2 if window < 20 else 3
        return int_words(rows[:n]), members[:n]

    # greedy takes all three rows in turn; the last two cover the first
    assert constructions._greedy_cover(int_words(rows), 6) == [1, 2]
    assert constructions._greedy_roles(6, 10, rows_in, ()) == [
        (3, ROLE_COVER), (5, ROLE_COVER)]
    assert windows == [10, 20]


def test_greedy_cover_matches_the_int_reference():
    # random rows of 1-5 words, a third of them copies of earlier rows so
    # that counts tie; every bit is put in some row, except one bit in a
    # quarter of the trials, which gives None
    rng = np.random.default_rng(20261021)
    for trial in range(200):
        width = int(rng.integers(1, 6))
        n_bits = int(rng.integers(64 * width - 63, 64 * width + 1))
        full = (1 << n_bits) - 1
        density = rng.choice([0.02, 0.1, 0.4])
        rows = []
        for _ in range(int(rng.integers(1, 30))):
            if rows and rng.random() < 1 / 3:
                rows.append(rows[int(rng.integers(0, len(rows)))])
            else:
                bits = np.flatnonzero(rng.random(n_bits) < density).tolist()
                rows.append(sum(1 << b for b in bits))
        missing = full
        for row in rows:
            missing &= ~row
        for b in range(n_bits):
            if missing >> b & 1:
                rows[int(rng.integers(0, len(rows)))] |= 1 << b
        if trial % 4 == 0:
            b = int(rng.integers(0, n_bits))
            rows = [row & ~(1 << b) for row in rows]
        want = greedy_cover_ints(rows, full)
        assert (want is None) == (trial % 4 == 0)
        assert constructions._greedy_cover(int_words(rows, width), n_bits) == want
    # ties go to the earliest row, at every round
    rows = [0b0011, 0b1100, 0b0011, 0b1100]
    assert constructions._greedy_cover(int_words(rows), 4) == [0, 1]
    assert constructions._greedy_cover(int_words([0b01, 0b10, 0b11]), 2) == [2]
    assert constructions._greedy_cover(int_words([0b01, 0b01]), 2) is None
    assert constructions._greedy_cover(int_words([0, 0]), 0) == []
    assert constructions._greedy_cover(int_words([(1 << 201) - 1]), 201) == [0]
    assert constructions._greedy_cover(int_words([(1 << 200) - 1]), 201) is None


def test_cover_3d_wider():
    cover = cover_algebra_3d(0.5)
    assert member_names(cover) == ["5+2i", "8+3i"]
    assert cover.algebra.ram_norms == (29, 73)
    assert len(cover.fields) == 6
    verify_cover_3d(cover)

    cover = cover_algebra_3d(1.0)
    assert member_names(cover) == ["1+1i", "3", "7+2i", "9+10i"]
    assert cover.algebra.ram_norms == (2, 9, 53, 181)
    assert cover.factor == 74880
    assert len(cover.fields) == 14
    verify_cover_3d(cover)
    assert cover_algebra_3d(1.0, require_torsion_free=True).algebra.ram_norms \
        == (2, 9, 53, 181)  # cover picks already satisfy both conditions


def test_cover_3d_errors():
    with pytest.raises(InputError):
        cover_algebra_3d(-1)
    with pytest.raises(InputError):
        cover_algebra_3d(9.0)


def test_cover_3d_refuses_a_large_x_before_the_extension_list(monkeypatch):
    # the extension list and the ideal rows took 101 s and 499 MB at x = 5;
    # the cap is checked first, so no extension list is built
    def exts(bound):
        raise AssertionError(f"listed extensions up to {bound} before refusing")

    monkeypatch.setattr(gaussian, "quad_exts_with_disc_below", exts)
    for x in (4.51, 5.0, 7.0):
        with pytest.raises(InputError, match=r"greedy cover over Q\(i\)"):
            cover_algebra_3d(x)


def test_cover_3d_lost_certificate_raises_a_package_error(monkeypatch):
    # rows that claim a cover no ideal gives: the certificate step must
    # raise a SysarithError, not leak StopIteration
    monkeypatch.setattr(constructions, "_split_rows_qi",
                        lambda pool, exts, cols: int_words([(1 << len(exts)) - 1] * len(pool)))
    monkeypatch.setattr(search, "splitting_in_ext", lambda P, ext: "inert")
    with pytest.raises(SysarithError, match="certificate"):
        cover_algebra_3d(0.5)


def test_primorial_log_bound():
    assert primorial_log_bound(10) == pytest.approx(5.3471075307174685, rel=1e-15)
    assert primorial_log_bound(10) == pytest.approx(math.log(2 * 3 * 5 * 7), rel=1e-12)
    assert primorial_log_bound(100) == pytest.approx(83.72839039906393, rel=1e-13)
    with pytest.raises(InputError):
        primorial_log_bound(1.5)
    with pytest.raises(InputError):
        primorial_log_bound(2 * 10 ** 8)


def test_primorial_inequality():
    # prod(p <= x) < 4^x, i.e. log primorial < x log 4, spot-checked here and
    # swept in full by the acceptance suite
    for x in (2, 10, 97, 1000, 99991):
        assert primorial_log_bound(x) < x * math.log(4.0)


def test_theorem_area_log_bound():
    got = theorem_area_log_bound_2d(0, 1, 1)
    assert got == pytest.approx(10.356069758158666, rel=1e-15)
    assert got == pytest.approx(math.log(math.pi / 3 * 30030), rel=1e-12)
    assert theorem_area_log_bound_2d(0.5, 1.0, 1.0) == pytest.approx(
        29.681417244426317, rel=1e-13)
    # monotone in every argument
    assert theorem_area_log_bound_2d(1.0, 1.0, 1.0) > got
    assert theorem_area_log_bound_2d(0, 2.0, 1.0) > got
    assert theorem_area_log_bound_2d(0, 1.0, 1.2) > got
    with pytest.raises(InputError):
        theorem_area_log_bound_2d(-0.5, 1, 1)
    with pytest.raises(InputError):
        theorem_area_log_bound_2d(0, 0.5, 1)
    with pytest.raises(InputError):
        theorem_area_log_bound_2d(0, 1, 0.9)


def test_multiquadratic_discriminant_anchors():
    assert multiquadratic_discriminant([2, 3]) == (2304, 3)     # 48^2
    assert multiquadratic_discriminant([5, 13]) == (4225, 0)    # 65^2
    assert multiquadratic_discriminant([-1]) == (4, 2)
    assert multiquadratic_discriminant([2, -1]) == (256, 3)
    assert multiquadratic_discriminant([-1, 3]) == (144, 2)
    assert multiquadratic_discriminant([-1, 5]) == (400, 2)
    assert multiquadratic_discriminant([2, 3, 5]) == (3317760000, 3)  # 240^4
    # generator order cannot matter
    assert multiquadratic_discriminant([3, 2]) == (2304, 3)
    # generators sharing a prime: sqrt(15) = sqrt(6) * sqrt(10) / 2 and
    # sqrt(-2) = sqrt(-3) * sqrt(6) / 3, so the subfield discriminants are
    # 24 * 40 * 60 = 240^2 and 3 * 24 * 8 = 24^2
    assert multiquadratic_discriminant([6, 10]) == (57600, 3)
    assert multiquadratic_discriminant([-3, 6]) == (576, 2)


def test_multiquadratic_discriminant_of_a_large_prime_generator():
    # rad(prod a_i) is the lcm of the squarefree a_i, and the squarefree part
    # of a subset product is composed from the a_i, so only each a_i is
    # trial-divided, up to its own square root
    assert multiquadratic_discriminant([1_000_000_007]) == (4_000_000_028, 2)
    # a = 3 and b = 1 mod 4: the subfield discriminants are 4a, b and 4ab
    a, b = 1_000_000_007, 1_000_000_009
    assert multiquadratic_discriminant([a, b]) == ((4 * a * b) ** 2, 2)


def test_multiquadratic_shape():
    # |disc| = (2^r * rad(prod a))^(2^(m-1)) for every valid generator list
    for a_list in ([2, 3], [5, 13], [2, -1], [-1, 3], [2, 3, 5], [7, 11], [-2, -3],
                   [6, 10], [-3, 6], [-1, 2, 6, 5]):
        disc, r = multiquadratic_discriminant(a_list)
        m = len(a_list)
        rad = 1
        total = abs(math.prod(a_list))
        for p in sieve_primes(total):
            if total % p == 0:
                rad *= p
        assert disc == (2 ** r * rad) ** (2 ** (m - 1))


def test_multiquadratic_errors():
    with pytest.raises(InputError):
        multiquadratic_discriminant([])
    with pytest.raises(InputError):
        multiquadratic_discriminant([4])       # not squarefree
    with pytest.raises(InputError):
        multiquadratic_discriminant([0])
    with pytest.raises(InputError):
        multiquadratic_discriminant([2, 2])    # duplicate
    with pytest.raises(InputError):
        multiquadratic_discriminant([2, 3, 6])  # 2*3*6 = 36 is a square
    with pytest.raises(InputError):
        multiquadratic_discriminant([6, 10, 15])  # product 900 is a square
    with pytest.raises(InputError):
        multiquadratic_discriminant(list(range(2, 20)))  # too many generators


def test_silverman_disc_bound():
    assert silverman_disc_bound(2, 0.7) == pytest.approx(math.exp(5.4), rel=1e-15)
    assert silverman_disc_bound(1, 0.0) == pytest.approx(math.exp(2.0), rel=1e-15)
    assert silverman_disc_bound(2, 0.7, absolute_qi=True) == pytest.approx(
        16 * math.exp(5.4), rel=1e-15)
    assert silverman_disc_bound(2, 1.0) > silverman_disc_bound(2, 0.5)
    with pytest.raises(InputError):
        silverman_disc_bound(0, 1.0)
    with pytest.raises(InputError):
        silverman_disc_bound(1.5, 1.0)
    with pytest.raises(InputError):
        silverman_disc_bound(2, -0.1)
    with pytest.raises(InputError):
        silverman_disc_bound(1, 1.0, absolute_qi=True)
    with pytest.raises(InputError):
        silverman_disc_bound(2, float("inf"))
