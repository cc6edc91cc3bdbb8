"""Command-line front end.

Subcommands run the minimal-factor searches, the same-systole family
generator, the cover constructions, systole queries, bound evaluators, and
volume computations, emitting aligned tables, CSV, or JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import NamedTuple

from . import __version__
from .constructions import (
    cover_algebra_2d,
    cover_algebra_3d,
    growth_check,
    same_systole_family_q,
    systole_field_q,
    theorem_area_log_bound_2d,
)
from .errors import (
    EXIT_INPUT_ERROR,
    EXIT_NO_CANDIDATE,
    EXIT_OK,
    InputError,
    NoCandidateError,
)
from .geodesics import MODE_PAPER, MODE_TRACE, exact_systole_q
from .quaternion import algebra_q
from .real_quadratic import quad_field
from .search import _norm_options, minimal_algebra_2d, valid_algebra_3d
from .volume import area_factor, coarea_q, format_volume, volume_constant_qi, volume_qi

HEADER_L = "Lower Bound for Systole Length l"
HEADER_SET = "Ramification Set"
HEADER_FACTOR = "Area Factor"
HEADER_VOLUME = "Volume"

FORMATS = ("table", "csv", "json")


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"malformed {what} list: {text!r}") from None
    if not values:
        raise InputError(f"empty {what} list: {text!r}")
    return values


def _fmt_num(x: float) -> str:
    return f"{x:g}"


def _fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


class _Output(NamedTuple):
    """A subcommand's result; `table` replaces the aligned rows when set."""

    payload: dict
    headers: list[str]
    rows: list[list[str]]
    table: str | None = None


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                     for row in [headers, *rows])


def _emit(fmt: str, out: _Output) -> None:
    if fmt == "json":
        print(json.dumps({"version": __version__, **out.payload}, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows([out.headers, *out.rows])
    else:
        print(_table(out.headers, out.rows) if out.table is None else out.table)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_search2d(args) -> _Output:
    res = minimal_algebra_2d(args.systole, args.torsion_free)
    rows = [[_fmt_num(args.systole), _fmt_set(s), str(res.factor)]
            for s in res.sets]
    return _Output(res.to_json(), [HEADER_L, HEADER_SET, HEADER_FACTOR], rows)


def _cmd_search3d(args) -> _Output:
    res = valid_algebra_3d(args.systole, args.norm_bound)
    rows = [[_fmt_num(args.systole), _fmt_set(P.norm for P in s),
             format_volume(res.volume)] for s in res.sets]
    return _Output(res.to_json(), [HEADER_L, HEADER_SET, HEADER_VOLUME], rows)


def _cmd_family(args) -> _Output:
    base = algebra_q(_parse_int_list(args.ram, "prime"))
    field = (quad_field(args.field) if args.field is not None
             else systole_field_q(base, args.cap))
    entries = same_systole_family_q(base, field, args.count)
    c_obs = growth_check(entries) if len(entries) >= 2 else None
    payload = {
        "base": base.to_json(),
        "field_d": field.d,
        "entries": [e.to_json() for e in entries],
        "c_obs": c_obs,
    }
    headers = ["Index", HEADER_SET, HEADER_FACTOR]
    rows = [[str(e.index), _fmt_set(e.ram), str(e.factor)] for e in entries]
    table = _table(headers, rows)
    if c_obs is not None:
        table += f"\nc_obs = {c_obs:.6g}"
    return _Output(payload, headers, rows, table)


def _cmd_cover2d(args) -> _Output:
    res = cover_algebra_2d(args.systole, args.torsion_free, args.exact)
    payload = dict(res.to_json(), x=args.systole)
    rows = [[_fmt_num(args.systole), _fmt_set(res.algebra.ram_sorted),
             str(res.factor)]]
    return _Output(payload, [HEADER_L, HEADER_SET, HEADER_FACTOR], rows)


def _cmd_cover3d(args) -> _Output:
    res = cover_algebra_3d(args.systole, args.torsion_free)
    vol = volume_qi(res.algebra)
    payload = dict(res.to_json(), x=args.systole, volume=vol)
    rows = [[_fmt_num(args.systole),
             _fmt_set(P.norm for P in res.algebra.ram_sorted),
             format_volume(vol)]]
    return _Output(payload, [HEADER_L, HEADER_SET, HEADER_VOLUME], rows)


def _cmd_systole2d(args) -> _Output:
    base = algebra_q(_parse_int_list(args.ram, "prime"))
    res = exact_systole_q(base, args.mode, args.cap)
    if not res.found:
        raise NoCandidateError(
            f"no geodesic of length below {args.cap} for {args.ram}")
    length = f"{res.length:.6f}"
    return _Output(res.to_json(), ["Systole Length", "Field"],
                   [[length, str(res.field.d)]], f"{length} (d={res.field.d})")


def _cmd_bounds(args) -> _Output:
    value = theorem_area_log_bound_2d(args.x, args.c1, args.c2)
    payload = {"x": args.x, "c1": args.c1, "c2": args.c2,
               "log_area_bound": value}
    row = [_fmt_num(args.x), _fmt_num(args.c1), _fmt_num(args.c2), f"{value:.6f}"]
    return _Output(payload, ["x", "c1", "c2", "Log Area Bound"], [row],
                   f"Log Area Bound: {row[-1]}")


def _cmd_volume(args) -> _Output:
    if args.base == "q":
        if args.ram is None:
            raise InputError("--base q requires --ram")
        algebra = algebra_q(_parse_int_list(args.ram, "prime"))
        members, factor = algebra.ram_sorted, area_factor(algebra)
        vol = coarea_q(algebra)
    else:
        if args.ram_norms is None:
            raise InputError("--base qi requires --ram-norms")
        members, _ = _norm_options(_parse_int_list(args.ram_norms, "norm"))
        factor = math.prod(n - 1 for n in members)
        vol = volume_constant_qi() * factor
    payload = {"base": args.base, "ram": list(members), "factor": factor,
               "volume": vol}
    shown = format_volume(vol)
    return _Output(payload, [HEADER_SET, HEADER_VOLUME],
                   [[_fmt_set(members), shown]], shown)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="sysarith",
                     description="Arithmetic systole searches and constructions.")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table",
                        help="output format (default: table)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("search2d", parents=[common],
                       help="minimal area-factor ramification set over Q")
    p.add_argument("--systole", type=float, required=True, metavar="L",
                   help="lower bound for the systole length")
    p.add_argument("--torsion-free", action="store_true",
                   help="require the torsion-freeness conditions")
    p.set_defaults(func=_cmd_search2d)

    p = sub.add_parser("search3d", parents=[common],
                       help="least-volume valid ramification set over an ideal pool of Q(i)")
    p.add_argument("--systole", type=float, required=True, metavar="L")
    p.add_argument("--norm-bound", type=int, default=100,
                   help="ideal pool norm bound (default: 100)")
    p.set_defaults(func=_cmd_search3d)

    p = sub.add_parser("family", parents=[common],
                       help="same-systole family over a base algebra")
    p.add_argument("--ram", required=True,
                   help="comma-separated base ramification primes")
    p.add_argument("--count", type=int, required=True,
                   help="number of family entries")
    p.add_argument("--field", type=int, default=None,
                   help="systole field d (default: computed from the base)")
    p.add_argument("--cap", type=float, default=5.0,
                   help="systole search cap when deriving the field")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("cover2d", parents=[common],
                       help="greedy cover algebra over Q")
    p.add_argument("--systole", type=float, required=True, metavar="X",
                   help="systole parameter x (disc bound e^(2+2x))")
    p.add_argument("--torsion-free", action="store_true")
    p.add_argument("--exact", action="store_true",
                   help="exhaustive minimal cover (small x only)")
    p.set_defaults(func=_cmd_cover2d)

    p = sub.add_parser("cover3d", parents=[common],
                       help="greedy cover algebra over Q(i)")
    p.add_argument("--systole", type=float, required=True, metavar="X")
    p.add_argument("--torsion-free", action="store_true")
    p.set_defaults(func=_cmd_cover3d)

    p = sub.add_parser("systole2d", parents=[common],
                       help="exact systole of a surface over Q")
    p.add_argument("--ram", required=True,
                   help="comma-separated ramification primes")
    p.add_argument("--mode", choices=(MODE_PAPER, MODE_TRACE),
                   default=MODE_PAPER)
    p.add_argument("--cap", type=float, default=5.0,
                   help="search cap on the geodesic length (default: 5)")
    p.set_defaults(func=_cmd_systole2d)

    p = sub.add_parser("bounds", parents=[common],
                       help="log-domain area bound with explicit constants")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("volume", parents=[common],
                       help="coarea or volume of a given ramification set")
    p.add_argument("--base", choices=("q", "qi"), default="q")
    p.add_argument("--ram", default=None,
                   help="comma-separated primes (base q)")
    p.add_argument("--ram-norms", default=None,
                   help="comma-separated ideal norms (base qi)")
    p.set_defaults(func=_cmd_volume)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INPUT_ERROR
    try:
        _emit(args.format, args.func(args))
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NoCandidateError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_CANDIDATE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
