"""Command-line interface: output formats and exit codes."""

import argparse
import csv
import io
import json
import math
import re

import pytest

import sysarith
from sysarith import InputError, cli, geodesic_length_from_trace, verify_exclusion_3d
from sysarith.cli import HEADER_FACTOR, HEADER_L, HEADER_SET, HEADER_VOLUME, main

# one quick invocation of each subcommand
SUBCOMMANDS = {
    "search2d": ["search2d", "--systole", "0.5"],
    "search3d": ["search3d", "--systole", "1", "--norm-bound", "30"],
    "family": ["family", "--ram", "3,5,7,11", "--count", "2", "--field", "77"],
    "cover2d": ["cover2d", "--systole", "0"],
    "cover3d": ["cover3d", "--systole", "0"],
    "systole2d": ["systole2d", "--ram", "2,31", "--cap", "3"],
    "bounds": ["bounds", "--x", "0"],
    "volume": ["volume", "--ram", "2,31"],
}
# subcommands whose table is the result alone, with no header line
ONE_LINE_TABLES = {"systole2d", "bounds", "volume"}


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search2d_csv(capsys):
    code, out, _ = run(capsys, "search2d", "--systole", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        f"{HEADER_L},{HEADER_SET},{HEADER_FACTOR}",
        '1,"{2,31}",30',
    ]


def test_search2d_table(capsys):
    code, out, _ = run(capsys, "search2d", "--systole", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for header in (HEADER_L, HEADER_SET, HEADER_FACTOR):
        assert header in lines[0]
    assert lines[1].split() == ["1", "{2,31}", "30"]


def test_search2d_json_roundtrip(capsys):
    code, out, _ = run(capsys, "search2d", "--systole", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sets"] == [[2, 31]]
    assert payload["factor_or_volume"] == 30
    assert payload["l"] == 1.0
    assert payload["exhaustive"] is True
    assert payload["best_effort"] is False
    assert payload["tested_below_optimum"] == 14
    assert {c["witness"] for c in payload["certificates"][0]} == {31}


def test_search2d_torsion_free(capsys):
    code, out, _ = run(capsys, "search2d", "--systole", "0.5",
                       "--torsion-free", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == '0.5,"{2,61}",60'


def test_search3d_csv(capsys):
    code, out, _ = run(capsys, "search3d", "--systole", "1",
                       "--norm-bound", "30", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        f"{HEADER_L},{HEADER_SET},{HEADER_VOLUME}",
        '1,"{2,5,5,9,13,13}",5627.69',
    ]


def test_family_table_and_footer(capsys):
    code, out, _ = run(capsys, "family", "--ram", "3,5,7,11", "--count", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("  ")[0] == "Index"
    assert lines[1].split() == ["1", "{3,5,7,11,17,23}", "168960"]
    assert lines[2].split() == ["2", "{3,5,7,11,17,29}", "215040"]
    assert lines[3].split() == ["3", "{3,5,7,11,17,31}", "230400"]
    assert lines[4] == "c_obs = 0.318182"


def test_family_explicit_field(capsys):
    code, out, _ = run(capsys, "family", "--ram", "3,5,7,11", "--count", "2",
                       "--field", "77", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["field_d"] == 77
    assert [e["factor"] for e in payload["entries"]] == [13440, 14400]
    assert payload["c_obs"] == pytest.approx(14400 / (4 * 13440), rel=1e-15)


def test_cover2d_csv(capsys):
    code, out, _ = run(capsys, "cover2d", "--systole", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == '0,"{2,11}",10'
    code, out, _ = run(capsys, "cover2d", "--systole", "1", "--exact",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == '1,"{2,3,5,241}",1920'


def test_cover3d_csv_and_json(capsys):
    code, out, _ = run(capsys, "cover3d", "--systole", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        f"{HEADER_L},{HEADER_SET},{HEADER_VOLUME}",
        '0,"{2,5}",1.22',
    ]
    code, out, _ = run(capsys, "cover3d", "--systole", "0", "--format", "json")
    payload = json.loads(out)
    assert [m["norm"] for m in payload["ram"]] == [2, 5]
    assert payload["volume"] == pytest.approx(4 * 0.3053218647257397, rel=1e-12)
    assert payload["exact"] is False


def test_systole2d_modes(capsys):
    code, out, _ = run(capsys, "systole2d", "--ram", "2,31",
                       "--mode", "paper", "--cap", "3")
    assert code == 0
    assert out == "1.194763 (d=13)\n"
    code, out, _ = run(capsys, "systole2d", "--ram", "2,31",
                       "--mode", "trace", "--cap", "3")
    assert code == 0
    assert out == "1.316958 (d=3)\n"


def test_systole2d_csv_and_json(capsys):
    code, out, _ = run(capsys, "systole2d", "--ram", "2,31", "--format", "csv")
    assert out.splitlines() == ["Systole Length,Field", "1.194763,13"]
    code, out, _ = run(capsys, "systole2d", "--ram", "2,31", "--format", "json")
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["mode"] == "paper"
    assert payload["d"] == 13
    assert payload["length"] == pytest.approx(1.1947632172871094, rel=1e-14)


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--x", "0")
    assert code == 0
    assert out == "Log Area Bound: 10.356070\n"
    code, out, _ = run(capsys, "bounds", "--x", "0", "--format", "csv")
    assert out.splitlines() == ["x,c1,c2,Log Area Bound", "0,1,1,10.356070"]
    code, out, _ = run(capsys, "bounds", "--x", "0", "--format", "json")
    payload = json.loads(out)
    assert payload["log_area_bound"] == pytest.approx(10.356069758158666,
                                                      rel=1e-15)


def test_volume(capsys):
    code, out, _ = run(capsys, "volume", "--base", "q", "--ram", "2,31")
    assert code == 0
    assert out == "31.42\n"  # pi/3 * 30
    code, out, _ = run(capsys, "volume", "--base", "qi",
                       "--ram-norms", "2,5,9,13")
    assert code == 0
    assert out == "117.24\n"
    code, out, _ = run(capsys, "volume", "--base", "qi",
                       "--ram-norms", "2,5,9,13", "--format", "csv")
    assert out.splitlines() == [f"{HEADER_SET},{HEADER_VOLUME}",
                                '"{2,5,9,13}",117.24']


@pytest.mark.parametrize("args", [
    ["search2d", "--systole", "-1"],
    ["search2d"],                                    # missing required flag
    ["frobnicate"],                                  # unknown subcommand
    ["systole2d", "--ram", "2,31", "--mode", "fast"],
    ["family", "--ram", "2,11", "--field", "5", "--count", "3"],
    ["volume", "--base", "q"],                       # missing --ram
    ["volume", "--base", "qi", "--ram-norms", "2,7"],  # unrealizable norm
    ["search2d", "--systole", "1", "--format", "xml"],
    ["search2d", "--systole", "1", "--workers", "2"],  # no such option
    ["systole2d", "--ram", "2,31", "--cache", "u.tsv"],  # no such option
    ["family", "--ram", "2,x", "--count", "1"],      # malformed list
    ["search3d", "--systole", "1", "--budget", "5"],  # no such option
    ["search3d", "--systole", "10"],                 # extension list past the cap
    ["cover2d", "--exact", "--systole", "6"],        # exact cover past its cap
    ["cover2d", "--systole", "5"],                   # greedy cover past its cap
    ["cover3d", "--systole", "5"],                   # greedy cover past its cap
])
def test_input_errors_exit_1(capsys, args):
    code, _, err = run(capsys, *args)
    assert code == 1
    assert err != ""


def test_family_with_a_field_refuses_an_inadmissible_base(capsys):
    # given the field, the base {3} once printed the three-prime sets
    # {2,3,5} and {2,3,11}; it fails as it does when the field is derived
    code, out, err = run(capsys, "family", "--ram", "3", "--count", "2", "--field", "2")
    want = run(capsys, "family", "--ram", "3", "--count", "2")
    assert (code, out, err) == want
    assert code == 1 and out == ""
    assert err == "error: ramification set must have even cardinality >= 2, got 1\n"


@pytest.mark.parametrize("norms", ["2,5,9", "3", "2,3", "2,2", "5,5,5,2", "0,5"])
def test_volume_qi_checks_norms_like_verify_exclusion(capsys, norms):
    # one check of a norm multiset: integers, even cardinality >= 2, realizable
    code, _, err = run(capsys, "volume", "--base", "qi", "--ram-norms", norms)
    with pytest.raises(InputError) as e:
        verify_exclusion_3d([int(n) for n in norms.split(",")], 1.0)
    assert code == 1
    assert err == f"error: {e.value}\n"


@pytest.mark.parametrize("args", [
    ["search3d", "--systole", "1", "--norm-bound", "2"],
    ["systole2d", "--ram", "2,11", "--cap", "0.5"],
])
def test_no_candidate_exit_2(capsys, args):
    code, _, err = run(capsys, *args)
    assert code == 2
    assert "error:" in err


def test_subcommands_lists_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMANDS)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_csv_columns_match_table_headers(capsys, name):
    _, csv_out, _ = run(capsys, *SUBCOMMANDS[name], "--format", "csv")
    _, table_out, _ = run(capsys, *SUBCOMMANDS[name])
    csv_cols, *rows = csv.reader(io.StringIO(csv_out))
    # the set cells are quoted, so a CSV reader sees as many cells as headers
    assert rows and all(len(row) == len(csv_cols) for row in rows)
    if name in ONE_LINE_TABLES:
        # the table shows the value of the CSV's last column
        assert len(table_out.splitlines()) == 1
        assert rows[0][-1] in table_out
    else:
        assert re.split(r"  +", table_out.splitlines()[0]) == csv_cols


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_json_carries_the_package_version(capsys, name):
    code, out, _ = run(capsys, *SUBCOMMANDS[name], "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[0] == "version"
    assert payload["version"] == sysarith.__version__


def test_volume_json(capsys):
    code, out, _ = run(capsys, "volume", "--ram", "2,31", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["base"] == "q"
    assert payload["ram"] == [2, 31]
    assert payload["factor"] == 30
    assert payload["volume"] == pytest.approx(10 * math.pi, rel=1e-15)
    code, out, _ = run(capsys, "volume", "--base", "qi", "--ram-norms", "13,2,9,5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ram"] == [2, 5, 9, 13]
    assert payload["factor"] == 1 * 4 * 8 * 12
    assert payload["volume"] == pytest.approx(384 * 0.3053218647257397, rel=1e-12)


def test_systole2d_trace_json_names_the_trace(capsys):
    code, out, _ = run(capsys, "systole2d", "--ram", "2,31", "--mode", "trace",
                       "--cap", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "trace"
    assert payload["trace"] == 4
    assert payload["d"] == 3
    assert payload["length"] == geodesic_length_from_trace(4)
    _, out, _ = run(capsys, "systole2d", "--ram", "2,31", "--format", "json")
    assert "trace" not in json.loads(out)


@pytest.mark.parametrize("args, message", [
    (["volume", "--base", "qi"], "--base qi requires --ram-norms"),
    (["volume", "--ram", ","], "empty prime list: ','"),
    (["volume", "--base", "qi", "--ram-norms", " , "], "empty norm list: ' , '"),
    (["family", "--ram", ",", "--count", "1"], "empty prime list: ','"),
])
def test_missing_or_empty_lists_exit_1(capsys, args, message):
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_main_module_entry_point():
    import sysarith.__main__  # noqa: F401  (import must not execute a search)
    assert callable(cli.main)
