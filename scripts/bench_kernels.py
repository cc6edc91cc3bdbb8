#!/usr/bin/env python3
"""Benchmark the numeric kernels on both execution paths.

Runs every kernel under the jitted path and under the pure-numpy fallback
(SYSARITH_NO_NUMBA=1), checks that the results agree, and prints a timing
table.  Path selection happens at import time, so the opposite path runs
in a subprocess.

Usage: python3 scripts/bench_kernels.py [--sieve N] [--zeta N] [--repeat K]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time


def _digest(arr) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def run_benchmarks(sieve_n: int, zeta_n: int, repeat: int) -> dict:
    from sysarith import _accel

    spf = _accel.smallest_factor_table(10_000)
    primes = _accel.primes_up_to(sieve_n)
    discs = [d for d in range(5, 400) if d % 4 in (0, 1)][:128]
    tables = _accel.character_tables(discs)

    cases = {
        "primes_up_to": (lambda: _accel.primes_up_to(sieve_n), _digest),
        "smallest_factor_table": (
            lambda: _accel.smallest_factor_table(sieve_n), _digest),
        "character_table": (
            lambda: _accel.character_table(3 * 10 ** 4 + 1, None), _digest),
        "build_split_masks": (
            lambda: _accel.build_split_masks(primes[: 10 ** 4], tables),
            _digest),
        "zeta_qi_lattice_sum": (
            lambda: _accel.zeta_qi_lattice_sum(zeta_n), lambda v: repr(v)),
    }
    out = {"jit_enabled": _accel.JIT_ENABLED, "results": {}}
    for name, (fn, digest) in cases.items():
        fn()  # warm-up (includes jit compilation)
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - t0)
        out["results"][name] = {"seconds": best, "digest": digest(value)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sieve", type=int, default=2 * 10 ** 6,
                        help="sieve bound (default 2e6)")
    parser.add_argument("--zeta", type=int, default=2 * 10 ** 5,
                        help="lattice-sum norm bound (default 2e5)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions, best-of (default 3)")
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    mine = run_benchmarks(args.sieve, args.zeta, args.repeat)
    if args.inner:
        print(json.dumps(mine))
        return 0

    env = dict(os.environ)
    if mine["jit_enabled"]:
        env["SYSARITH_NO_NUMBA"] = "1"
    else:
        env.pop("SYSARITH_NO_NUMBA", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--inner",
         "--sieve", str(args.sieve), "--zeta", str(args.zeta),
         "--repeat", str(args.repeat)],
        capture_output=True, text=True, env=env, check=True)
    other = json.loads(proc.stdout)

    jit, fallback = (mine, other) if mine["jit_enabled"] else (other, mine)
    if jit["jit_enabled"] == fallback["jit_enabled"]:
        print("warning: numba unavailable; both runs used the numpy fallback",
              file=sys.stderr)

    print(f"{'kernel':<24}{'jit (s)':>12}{'fallback (s)':>14}"
          f"{'speedup':>9}  agree")
    failures = 0
    for name in jit["results"]:
        a = jit["results"][name]
        b = fallback["results"][name]
        if name == "zeta_qi_lattice_sum":
            va, vb = float(a["digest"]), float(b["digest"])
            agree = abs(va - vb) <= 1e-12 * max(abs(va), abs(vb))
        else:
            agree = a["digest"] == b["digest"]
        failures += not agree
        speedup = b["seconds"] / a["seconds"] if a["seconds"] > 0 else 0.0
        print(f"{name:<24}{a['seconds']:>12.6f}{b['seconds']:>14.6f}"
              f"{speedup:>8.1f}x  {'yes' if agree else 'NO'}")
    if failures:
        print(f"error: {failures} kernel(s) disagree across paths",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
