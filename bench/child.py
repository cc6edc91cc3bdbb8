"""One benchmark child: a fresh interpreter that imports sysarith, makes a
workload's public calls back to back, checks every answer and prints one
JSON line.  run.py starts it with src/ and tests/ on PYTHONPATH.

Set-up is the import of sysarith itself.  Its dependencies numpy and
mpmath are imported first and timed apart (`deps_s`, reported in the
detail line only): no change to sysarith moves that time, and together
with process start it shifted by a third between host states that lasted
tens of minutes.  With `--setup-only` the child stops after the import.

Set-up and the calls of an untraced child are calibrated for the host's
speed with a speed.SpeedProbe (see there): `setup_s` and `calibrated_s`
are the times on a host of a fixed speed.
"""

import time

T_START = time.monotonic()

import mpmath  # noqa: E402
import numpy  # noqa: E402

from speed import SpeedProbe  # noqa: E402

T_DEPS = time.monotonic()
import sysarith  # noqa: E402

SETUP_RAW_S = time.monotonic() - T_DEPS
# The import (about 27 ms) is too short to sample every 4 ms, and sampling
# every millisecond slowed it by a sixth, so the samples come right after.
SETUP_PROBE = SpeedProbe()
SETUP_PROBE.burst(50)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def run_op(op):
    """(answer or None, wall time of the call alone, problems)."""
    t = time.perf_counter()
    try:
        result = op.call()
    except Exception:
        return None, time.perf_counter() - t, [traceback.format_exc(limit=4)]
    call_s = time.perf_counter() - t
    try:
        return result, call_s, op.check(result)
    except Exception:
        return result, call_s, [traceback.format_exc(limit=4)]


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "jit_enabled": sysarith._accel.JIT_ENABLED,
        "sysarith_version": sysarith.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_record() -> dict:
    return {"deps_s": T_DEPS - T_START, "setup_raw_s": SETUP_RAW_S,
            "setup_s": SETUP_PROBE.calibrate(SETUP_RAW_S)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        print(json.dumps(setup_record()))
        return

    ops = workloads.WORKLOADS[args.workload](sysarith, args.seed, args.scale)
    tracer = work = None
    if args.trace:
        tracer, work = workloads.make_tracer()
        tracer.install()
    results, problems, failed = [], [], 0
    solve_s = 0.0
    probe = SpeedProbe()
    try:
        with contextlib.nullcontext() if args.trace else probe:
            for op in ops:
                before = probe.spent_s
                result, call_s, bad = run_op(op)
                solve_s += call_s - (probe.spent_s - before)
                results.append(result)
                if bad:
                    failed += 1
                    problems += [f"{op.label}: {p}" for p in bad]
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        **setup_record(),
        "solve_s": solve_s,
        "probe_s": probe.loop_s() if probe.samples else None,
        "probes": len(probe.samples),
        "rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "digest": workloads.digest(results),
        "provenance": provenance(),
    }
    if probe.samples:
        record["calibrated_s"] = probe.calibrate(solve_s)
    if tracer is not None:
        record["layers"] = workloads.layer_metrics(tracer, work, results, solve_s)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
