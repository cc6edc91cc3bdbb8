"""The benchmark's workloads: inputs from a seed, the public calls, a check
on every answer, and the per-layer metrics of a traced child.

Answers the code defines uniquely are compared with `expected.json`, which
was recorded by running these calls at the commit that added the benchmark.
Every certificate is also re-checked without the library's own symbols:
Euler's criterion against the field discriminant over Q, and the brute
residue enumeration of tests/oracles.py over Q(i).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

from oracles import brute_even_split_qi, brute_symbol_qi
from tracer import Tracer

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())
SCALES = EXPECTED["scales"]
DEFAULT_SEED = 0


class Op(NamedTuple):
    """One public call and the check of its answer (a list of problems)."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# independent certificate checks

def field_disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def splits_q(d: int, p: int) -> bool:
    """p splits in Q(sqrt d): Euler's criterion on the discriminant."""
    disc = field_disc(d)
    if p == 2:
        return disc % 8 == 1
    return pow(disc % p, (p - 1) // 2, p) == 1


def splits_qi(ext, P) -> bool:
    """The Gaussian prime P splits in Q(i)(sqrt delta), by brute residues."""
    a, b = ext.delta.a, ext.delta.b
    if P.norm % 2 == 0:
        return (a + b) % 2 == 1 and brute_even_split_qi(a, b)
    p = P.norm if P.kind == "split" else P.gen.a
    return brute_symbol_qi(a, b, P.gen.a, P.gen.b, p) == "split"


def expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, recorded {want!r}")


def q_certificate(fields, ram, cert) -> list:
    problems = []
    if set(cert) != set(fields):
        problems.append("certificate does not cover exactly the field list")
    for f, w in cert.items():
        if w not in ram or not splits_q(f.d, w):
            problems.append(f"witness {w} does not split Q(sqrt {f.d}) in {sorted(ram)}")
    return problems


def qi_certificate(exts, ram, cert) -> list:
    problems = []
    if set(cert) != set(exts):
        problems.append("certificate does not cover exactly the extension list")
    for e, P in cert.items():
        if P not in ram or not splits_qi(e, P):
            problems.append(f"witness {P.gen} does not split Q(i)(sqrt {e.delta})")
    return problems


def fields_digest(fields) -> str:
    return hashlib.sha256(",".join(str(f.d) for f in fields).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# surface_l4.75: the exhaustive minimal-area search over Q

def check_surface(r, exp) -> list:
    problems = []
    expect(problems, "factor", r.factor, exp["factor"])
    expect(problems, "sets", [list(s) for s in r.sets], exp["sets"])
    expect(problems, "tested_below_optimum", r.tested_below_optimum,
           exp["tested_below_optimum"])
    expect(problems, "fields", len(r.excluded_fields), exp["fields"])
    expect(problems, "field list digest", fields_digest(r.excluded_fields),
           exp["fields_digest"])
    expect(problems, "exhaustive", r.exhaustive, True)
    expect(problems, "certificates", len(r.certificates), len(r.sets))
    for s, cert in zip(r.sets, r.certificates):
        problems += q_certificate(r.excluded_fields, s, cert)
    return problems


def surface_ops(S, seed, scale):
    l = SCALES[scale]["surface_l"]
    exp = EXPECTED["surface"][scale]
    return [Op(f"minimal_algebra_2d({l})", lambda: S.minimal_algebra_2d(l),
               lambda r: check_surface(r, exp))]


# ---------------------------------------------------------------------------
# systole_cap6: exact systoles in paper and trace mode

def systole_sets(seed: int) -> list:
    """Four pool entries; the pool starts with the four default sets."""
    pool = EXPECTED["systole"]["pool"]
    if seed == DEFAULT_SEED:
        return pool[:4]
    return random.Random(seed).sample(pool, 4)


def check_systole(r, want, ram, mode) -> list:
    problems = []
    expect(problems, "mode", r.mode, mode)
    if want is None:
        expect(problems, "found", r.found, False)
        return problems
    expect(problems, "found", r.found, True)
    if not r.found:
        return problems
    expect(problems, "d", r.field.d, want[1])
    if not math.isclose(r.length, want[0], rel_tol=1e-12):
        problems.append(f"length: got {r.length!r}, recorded {want[0]!r}")
    if mode == "trace":
        expect(problems, "trace", r.trace, want[2])
    split = [p for p in ram if splits_q(r.field.d, p)]
    if split:
        problems.append(f"Q(sqrt {r.field.d}) does not embed: {split} split")
    return problems


def systole_ops(S, seed, scale):
    cap = SCALES[scale]["cap"]
    ops = []
    for entry in systole_sets(seed):
        ram = entry["ram"]
        for mode in ("paper", "trace"):
            want = entry[scale][mode]
            ops.append(Op(
                f"exact_systole_q({ram}, {mode}, {cap})",
                lambda ram=ram, mode=mode: S.exact_systole_q(S.algebra_q(ram), mode, cap),
                lambda r, ram=ram, mode=mode, want=want: check_systole(r, want, ram, mode)))
    return ops


# ---------------------------------------------------------------------------
# qi_l2: best-effort Q(i) search, exclusion checks and the Q(i) cover

def qi_rows(seed: int, scale: str) -> list:
    """One recorded multiset per reference l; the default seed takes the
    reference multiset of each row, other seeds one of its recorded variants."""
    rng = random.Random(seed)
    rows = []
    for row in EXPECTED["qi"]["rows"]:
        if row["l"] <= SCALES[scale]["rows_max_l"]:
            k = 0 if seed == DEFAULT_SEED else rng.randrange(len(row["choices"]))
            rows.append((row["l"], row["choices"][k]))
    return rows


def check_valid_3d(r, exp) -> list:
    problems = []
    expect(problems, "base", r.base, "Qi")
    if r.factor > exp["valid_factor"]:
        problems.append(f"factor {r.factor} above recorded {exp['valid_factor']}")
    expect(problems, "extensions", len(r.excluded_fields), exp["valid_exts"])
    for s, cert in zip(r.sets, r.certificates):
        if len(s) < 2 or len(s) % 2:
            problems.append(f"inadmissible set of {len(s)} ideals")
        expect(problems, "set factor", math.prod(P.norm - 1 for P in s), r.factor)
        problems += qi_certificate(r.excluded_fields, s, cert)
    return problems


def check_exclusion(rep, l, want) -> list:
    problems = []
    expect(problems, "valid", rep.valid, want["valid"])
    expect(problems, "assignments", len(rep.assignments), want["assignments"])
    expect(problems, "tested_extensions", rep.tested_extensions,
           want["tested_extensions"])
    bound = math.exp(2.0 * (l + 2.0))
    for a in rep.assignments:
        expect(problems, "assignment norms", sorted(P.norm for P in a.ideals),
               want["norms"])
        e = a.failing_ext
        if a.valid != (e is None):
            problems.append("assignment validity disagrees with its counterexample")
        if e is not None and (e.rel_disc_norm > bound
                              or any(splits_qi(e, P) for P in a.ideals)):
            problems.append(f"Q(i)(sqrt {e.delta}) is no counterexample at l={l}")
    expect(problems, "valid is any assignment valid", rep.valid,
           any(a.valid for a in rep.assignments))
    return problems


def check_cover_3d(c, exp) -> list:
    problems = []
    expect(problems, "factor", c.factor, exp["cover_factor"])
    expect(problems, "extensions", len(c.fields), exp["cover_exts"])
    expect(problems, "ram norms", sorted(P.norm for P in c.algebra.ram),
           exp["cover_ram_norms"])
    return problems + qi_certificate(c.fields, c.algebra.ram, c.certificate)


def qi_ops(S, seed, scale):
    sc, exp = SCALES[scale], EXPECTED["qi"][scale]
    ops = [Op(f"valid_algebra_3d({sc['valid_l']}, 100)",
              lambda: S.valid_algebra_3d(sc["valid_l"], pool_norm_bound=100),
              lambda r: check_valid_3d(r, exp))]
    for l, want in qi_rows(seed, scale):
        ops.append(Op(f"verify_exclusion_3d({want['norms']}, {l})",
                      lambda l=l, want=want: S.verify_exclusion_3d(want["norms"], l),
                      lambda r, l=l, want=want: check_exclusion(r, l, want)))
    ops.append(Op(f"cover_algebra_3d({sc['cover3d_x']})",
                  lambda: S.cover_algebra_3d(sc["cover3d_x"]),
                  lambda c: check_cover_3d(c, exp)))
    return ops


# ---------------------------------------------------------------------------
# cover2d_x3: greedy, exact and torsion-free covers over Q

def check_cover_2d(c, want, kwargs) -> list:
    problems = []
    expect(problems, "factor", c.factor, want["factor"])
    expect(problems, "ram", sorted(c.algebra.ram), want["ram"])
    expect(problems, "fields", len(c.fields), want["fields"])
    expect(problems, "exact", c.exact, kwargs.get("exact", False))
    if kwargs.get("require_torsion_free") and not (
            any(p % 4 == 1 for p in c.algebra.ram)
            and any(p % 3 == 1 for p in c.algebra.ram)):
        problems.append(f"{sorted(c.algebra.ram)} is not torsion-free")
    return problems + q_certificate(c.fields, c.algebra.ram, c.certificate)


def cover2d_ops(S, seed, scale):
    ops = []
    for (x, kwargs), want in zip(SCALES[scale]["cover2d"], EXPECTED["cover2d"][scale]):
        ops.append(Op(f"cover_algebra_2d({x}, {kwargs})",
                      lambda x=x, kwargs=kwargs: S.cover_algebra_2d(x, **kwargs),
                      lambda c, kwargs=kwargs, want=want: check_cover_2d(c, want, kwargs)))
    return ops


WORKLOADS = {
    "surface_l4.75": surface_ops,
    "systole_cap6": systole_ops,
    "qi_l2": qi_ops,
    "cover2d_x3": cover2d_ops,
}


def digest(results) -> str:
    """Digest of every answer's JSON form, to compare traced with untraced."""
    payload = json.dumps([None if r is None else r.to_json() for r in results],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# traced run: the wrapped functions and the per-layer metrics

TARGETS = [
    "_accel.primes_up_to",
    "_accel.smallest_factor_table",
    "_accel.character_table",
    "_accel.build_split_masks",
    "search.minimal_algebra_2d",
    "search.valid_algebra_3d",
    "search.verify_exclusion_3d",
    "real_quadratic.fields_with_regulator_below",
    "real_quadratic.is_squarefree",
    "real_quadratic.fundamental_unit",
    "real_quadratic.splitting_type_q",
    "gaussian.splitting_in_ext",
    "gaussian.quad_residue_symbol",
    "gaussian.quad_exts_with_disc_below",
    "gaussian.gaussian_primes_up_to_norm",
    "geodesics.exact_systole_q",
    "quaternion.embeds_q",
    "constructions.cover_algebra_2d",
    "constructions.cover_algebra_3d",
]

# (metric, unit): the per-layer metrics a traced run reports.  Metric names
# drop the leading underscore of `_accel`, which a metric name may not have.
PER_LAYER = [
    ("accel.character_table.s", "s"),
    ("accel.character_table.calls", "count"),
    ("accel.character_table.per_field", "calls/field"),
    ("accel.build_split_masks.s", "s"),
    ("accel.build_split_masks.calls", "count"),
    ("accel.build_split_masks.cells", "count"),
    ("accel.primes_up_to.s", "s"),
    ("accel.primes_up_to.primes", "count"),
    ("accel.smallest_factor_table.s", "s"),
    ("search.sieve_useful_frac", "ratio"),
    ("search.minimal_algebra_2d.self_s", "s"),
    ("search.sets_tested", "count"),
    ("real_quadratic.fields_with_regulator_below.s", "s"),
    ("real_quadratic.fields_with_regulator_below.fields", "count"),
    ("real_quadratic.is_squarefree.calls", "count"),
    ("real_quadratic.is_squarefree.s", "s"),
    ("real_quadratic.fundamental_unit.calls", "count"),
    ("real_quadratic.fundamental_unit.s", "s"),
    ("geodesics.useful_field_frac", "ratio"),
    ("geodesics.exact_systole_q.self_s", "s"),
    ("quaternion.embeds_q.calls", "count"),
    ("real_quadratic.splitting_type_q.calls", "count"),
    ("real_quadratic.splitting_type_q.s", "s"),
    ("gaussian.splitting_in_ext.calls", "count"),
    ("gaussian.splitting_in_ext.s", "s"),
    ("gaussian.quad_residue_symbol.calls", "count"),
    ("gaussian.quad_residue_symbol.s", "s"),
    ("gaussian.quad_exts_with_disc_below.s", "s"),
    ("gaussian.quad_exts_with_disc_below.exts", "count"),
    ("gaussian.gaussian_primes_up_to_norm.s", "s"),
    ("gaussian.gaussian_primes_up_to_norm.ideals", "count"),
    ("search.valid_algebra_3d.self_s", "s"),
    ("search.verify_exclusion_3d.self_s", "s"),
    ("constructions.cover_algebra_3d.self_s", "s"),
    ("constructions.cover_algebra_2d.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
]

# The wrapped functions each workload must reach (the smoke test asserts
# calls > 0); the per-layer metrics of all others read 0 there.
ACTIVE = {
    "surface_l4.75": ["_accel.primes_up_to", "_accel.smallest_factor_table",
                      "_accel.character_table", "_accel.build_split_masks",
                      "search.minimal_algebra_2d",
                      "real_quadratic.fields_with_regulator_below",
                      "real_quadratic.splitting_type_q"],
    "systole_cap6": ["real_quadratic.fields_with_regulator_below",
                     "real_quadratic.is_squarefree", "real_quadratic.fundamental_unit",
                     "geodesics.exact_systole_q", "quaternion.embeds_q"],
    "qi_l2": ["gaussian.splitting_in_ext", "gaussian.quad_residue_symbol",
              "gaussian.quad_exts_with_disc_below", "gaussian.gaussian_primes_up_to_norm",
              "search.valid_algebra_3d", "search.verify_exclusion_3d",
              "constructions.cover_algebra_3d"],
    "cover2d_x3": ["_accel.character_table", "_accel.build_split_masks",
                   "real_quadratic.splitting_type_q", "constructions.cover_algebra_2d"],
}


class Work:
    """Counts of the work wrapped calls did, filled in by tracer observers."""

    def __init__(self):
        self.discs: set = set()
        self.cells = 0
        self.primes = 0
        self.largest_sieve = None
        self.fields = 0
        self.last_fields: list = []
        self.exts = 0
        self.ideals = 0
        self.sets_tested = 0
        self.optimum = None

    def observers(self) -> dict:
        def character_table(args, kwargs, result):
            self.discs.add(args[0])

        def build_split_masks(args, kwargs, result):
            self.cells += len(args[0]) * len(args[1])

        def primes_up_to(args, kwargs, result):
            self.primes += len(result)
            if self.largest_sieve is None or len(result) > len(self.largest_sieve):
                self.largest_sieve = result

        def fields_with_regulator_below(args, kwargs, result):
            self.fields += len(result)
            self.last_fields = result

        def quad_exts(args, kwargs, result):
            self.exts += len(result)

        def gaussian_primes(args, kwargs, result):
            self.ideals += len(result)

        def minimal_algebra_2d(args, kwargs, result):
            self.sets_tested += result.tested_below_optimum
            self.optimum = result.factor

        return {
            "_accel.character_table": character_table,
            "_accel.build_split_masks": build_split_masks,
            "_accel.primes_up_to": primes_up_to,
            "real_quadratic.fields_with_regulator_below": fields_with_regulator_below,
            "gaussian.quad_exts_with_disc_below": quad_exts,
            "gaussian.gaussian_primes_up_to_norm": gaussian_primes,
            "search.minimal_algebra_2d": minimal_algebra_2d,
        }


def make_tracer():
    work = Work()
    return Tracer(TARGETS, work.observers()), work


def layer_metrics(tracer, work, results, solve_s) -> dict:
    """Every per-layer metric but trace.overhead_s, which needs an untraced
    child too; computed after the tracer is uninstalled."""
    out = {}
    for name, st in tracer.stats.items():
        key = name.lstrip("_")
        out[f"{key}.calls"] = st.calls
        out[f"{key}.s"] = st.total_s
        out[f"{key}.self_s"] = st.self_s
    n_discs = len(work.discs)
    out["accel.character_table.per_field"] = (
        out["accel.character_table.calls"] / n_discs if n_discs else 0.0)
    out["accel.build_split_masks.cells"] = work.cells
    out["accel.primes_up_to.primes"] = work.primes
    out["real_quadratic.fields_with_regulator_below.fields"] = work.fields
    out["gaussian.quad_exts_with_disc_below.exts"] = work.exts
    out["gaussian.gaussian_primes_up_to_norm.ideals"] = work.ideals
    out["search.sets_tested"] = work.sets_tested

    # primes at most optimum+1, over primes sieved, in the surface search
    useful = 0
    if work.optimum is not None and work.largest_sieve is not None:
        useful = int(work.largest_sieve.searchsorted(work.optimum + 1, side="right"))
    out["search.sieve_useful_frac"] = useful / work.primes if work.primes else 0.0

    # fields with regulator at most the systole found, over fields scanned
    lengths = [r.length for r in results
               if r is not None and getattr(r, "mode", None) == "paper" and r.found]
    useful = sum(1 for length in lengths for f in work.last_fields
                 if f.regulator <= length)
    out["geodesics.useful_field_frac"] = useful / work.fields if work.fields else 0.0

    out["trace.unattributed_s"] = solve_s - tracer.top_s
    return out
