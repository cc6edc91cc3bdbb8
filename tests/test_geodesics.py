"""Geodesic lengths from traces and exact shortest-geodesic searches."""

import math

import pytest

from sysarith.errors import InputError, NonHyperbolicError
from sysarith.geodesics import (
    MODE_PAPER,
    MODE_TRACE,
    exact_systole_q,
    geodesic_length_from_trace,
)
from sysarith.quaternion import algebra_q
from sysarith.real_quadratic import regulator

from oracles import (
    brute_geodesic_min_trace_length,
    brute_short_traces_qi,
    brute_splitting_q,
    geodesic_candidate,
)


def test_length_from_trace_matches_closed_form():
    for t, length in brute_geodesic_min_trace_length(6.0):
        assert geodesic_length_from_trace(t) == pytest.approx(length, rel=1e-15)
        assert geodesic_length_from_trace(-t) == pytest.approx(length, rel=1e-15)
        assert geodesic_length_from_trace(t, dimension=3) == pytest.approx(
            2 * length, rel=1e-15)
        # length = 2*arccosh(|t|/2) on the plane; surface convention halves it
        assert geodesic_length_from_trace(t) == pytest.approx(
            math.acosh(t / 2), rel=1e-12)


def test_short_traces_qi_real_lengths():
    # the oracle's 2*Re arccosh(t/2) is the 3-manifold length on real traces
    real = [(a, x) for (a, b), x in brute_short_traces_qi(3.0) if b == 0]
    assert sorted(a for a, _ in real) == [-4, -3, 3, 4]
    for t, x in real:
        assert geodesic_length_from_trace(t, 3) == pytest.approx(x, rel=1e-12)
    # trace +-i is the shortest: twice the log of the golden ratio
    assert brute_short_traces_qi(1.0) == [
        ((0, -1), pytest.approx(2 * regulator(5), rel=1e-12)),
        ((0, 1), pytest.approx(2 * regulator(5), rel=1e-12))]


def test_length_from_trace_errors():
    for t in (-2, -1, 0, 1, 2):
        with pytest.raises(NonHyperbolicError):
            geodesic_length_from_trace(t)
    with pytest.raises(InputError):
        geodesic_length_from_trace(3, dimension=4)


def test_geodesic_candidate_fields():
    c = geodesic_candidate(3)
    assert c.d == 5 and c.trace == 3
    # (3 + sqrt(5))/2 is the square of the golden ratio: twice the regulator
    assert c.length_trace_mode == pytest.approx(2 * regulator(5), rel=1e-12)
    assert c.length_paper_mode == pytest.approx(regulator(5), rel=1e-12)
    c = geodesic_candidate(4)
    assert c.d == 3
    assert c.length_trace_mode == pytest.approx(regulator(3), rel=1e-12)
    c = geodesic_candidate(6)
    assert c.d == 2
    # (6 + sqrt(32))/2 = (1+sqrt(2))^2
    assert c.length_trace_mode == pytest.approx(2 * regulator(2), rel=1e-12)


def test_exact_systole_known_algebras():
    res = exact_systole_q(algebra_q([2, 11]))
    assert res.found and res.field.d == 2
    assert res.length == pytest.approx(0.881373587019543, abs=1e-12)

    res = exact_systole_q(algebra_q([2, 31]))
    assert res.found and res.field.d == 13
    assert res.length == pytest.approx(1.1947632172871094, abs=1e-12)


PELL_MINIMUM_ROWS = [
    ([2, 31], 13, 5.0, None), ([2, 11], 2, 5.0, None), ([3, 5], 5, 5.0, None),
    # the first embeddable trace, 11, lies in Q(sqrt 13) = Q(sqrt(3^2 + 4)),
    # so the paper-mode list stops just above a regulator that equals
    # regulator_lower_bound(13)
    ([47, 71], 13, 5.0, None), ([67, 71], 13, 5.0, None),
    ([2, 7, 19, 31, 47, 79], 8277, 5.0, None),
    # the l = 5.5 and 5.75 surface minimizers: systoles 5.568330 and 5.960999,
    # each realized by a norm +1 fundamental unit, so trace mode agrees
    ([2, 5, 7, 11, 29, 37, 67, 137], 4290, 8.0, 262),
    ([2, 5, 7, 17, 23, 107, 137, 149], 37635, 8.0, 388),
]


@pytest.mark.parametrize("ram, d, cap, trace", PELL_MINIMUM_ROWS, ids=[
    f"ram{i}-{row[1]}" for i, row in enumerate(PELL_MINIMUM_ROWS)])
def test_paper_mode_matches_pell_scan_minimum(ram, d, cap, trace, pell_fields_below_6):
    # the regulator minimum over every field of regulator < 6 that no
    # ramified prime splits, from the oracle Pell scan and residue symbols
    want = min((reg, e) for e, reg in pell_fields_below_6
               if all(brute_splitting_q(e, p) != "split" for p in ram))
    res = exact_systole_q(algebra_q(ram), mode=MODE_PAPER, cap=cap)
    assert res.found and res.field.d == want[1] == d
    assert res.length == pytest.approx(want[0], rel=1e-12)
    if trace is not None:
        by_trace = exact_systole_q(algebra_q(ram), mode=MODE_TRACE, cap=cap)
        assert (by_trace.trace, by_trace.field.d) == (trace, d)
        assert by_trace.length == pytest.approx(want[0], rel=1e-12)


def test_paper_mode_without_a_trace_below_the_cap():
    # trace 11 (length 2.39) is the first embeddable one, so at cap 2 trace
    # mode finds nothing and paper mode scans every field below the cap
    B = algebra_q([47, 71])
    assert not exact_systole_q(B, mode=MODE_TRACE, cap=2.0).found
    res = exact_systole_q(B, mode=MODE_PAPER, cap=2.0)
    assert res.found and res.field.d == 13
    assert res.length == pytest.approx(regulator(13), rel=1e-15)


def test_paper_mode_high_cap_stops_at_the_trace_witness():
    # an unbounded scan to cap 7 visits about e^14 discriminants
    res = exact_systole_q(algebra_q([2, 31]), cap=7.0)
    assert res.found and res.field.d == 13
    assert res.length == pytest.approx(1.1947632172871094, abs=1e-12)


def test_trace_mode_relation_to_regulators():
    # The trace-mode witness realizes the fundamental unit of its own field
    # or that unit's square (norm -1 units are only reachable squared), and
    # scanning all integer traces can never beat the regulator minimum.
    for ram in ([2, 11], [2, 31], [3, 5, 7, 11], [2, 3, 17, 71]):
        B = algebra_q(ram)
        paper = exact_systole_q(B, mode=MODE_PAPER, cap=5.0)
        trace = exact_systole_q(B, mode=MODE_TRACE, cap=10.0)
        assert paper.found and trace.found
        ratio = trace.length / regulator(trace.field.d)
        assert min(abs(ratio - 1), abs(ratio - 2)) < 1e-9
        assert trace.length >= paper.length - 1e-12


def test_trace_mode_reads_norm_one_units_of_a_field_met_at_norm_minus_one():
    # the walk first meets Q(sqrt 13) at x = 3, by its norm -1 fundamental
    # unit (3 + sqrt 13)/2; the square (11 + 3 sqrt 13)/2 has norm +1 and
    # is the first embeddable trace, so a known field must not be skipped
    res = exact_systole_q(algebra_q([47, 71]), mode=MODE_TRACE, cap=3.0)
    assert res.found and res.trace == 11 and res.field.d == 13
    assert res.length == pytest.approx(2 * regulator(13), rel=1e-12)


def test_trace_mode_skips_obstructed_fields():
    # traces 3 and 4 land in fields where 11 splits; trace 5 is the first
    # embeddable one and lives in a field paper mode does not pick
    res = exact_systole_q(algebra_q([2, 11]), mode=MODE_TRACE, cap=3.0)
    assert res.found and res.trace == 5 and res.field.d == 21
    assert res.length == pytest.approx(1.566799, abs=5e-7)


def test_systole_monotone_in_ramification():
    for extra in ([3, 17], [13, 31], [5, 7]):
        A = algebra_q([2, 11])
        B = algebra_q([2, 11, *extra])
        for mode in (MODE_PAPER, MODE_TRACE):
            a = exact_systole_q(A, mode=mode, cap=6.0)
            b = exact_systole_q(B, mode=mode, cap=6.0)
            if b.found:
                assert b.length >= a.length - 1e-12


def test_exact_systole_not_found_below_cap():
    res = exact_systole_q(algebra_q([2, 11]), cap=0.5)
    assert res.found is False
    assert res.to_json() == {"found": False, "mode": MODE_PAPER}


def test_exact_systole_errors():
    with pytest.raises(InputError):
        exact_systole_q(algebra_q([2, 11]), cap=0.0)
    with pytest.raises(InputError):
        exact_systole_q(algebra_q([2, 11]), mode="fast")
    from sysarith.errors import InadmissibleAlgebraError
    with pytest.raises(InadmissibleAlgebraError):
        exact_systole_q(algebra_q([2, 3, 5]))


def test_systole_result_json():
    res = exact_systole_q(algebra_q([2, 31]))
    j = res.to_json()
    assert j["found"] is True and j["d"] == 13 and j["mode"] == MODE_PAPER
