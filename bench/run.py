"""sysarith benchmark: time the public search calls in fresh interpreters.

    python3 bench/run.py --workload surface_l4.75 --seed 0 --seconds 10 --trace 0

Closed loop: one child process at a time makes the workload's calls back
to back (workers=1, no extra threads), checks every answer and reports its
solve time and peak RSS.  Children are started while the next one is
expected to end within --seconds, at least one.  With --trace 0 the run
then starts a few import-only children to time set-up, and reports the
end-to-end metrics, with solve and set-up times calibrated for the host's
speed (see speed.py); with --trace 1 it alternates untraced and traced
children and reports the per-layer metrics.  The last stdout line is the
result JSON; the line before it holds the samples and the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 5

END_TO_END = [("calibrated_solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class ChildError(RuntimeError):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args: list[str], deadline: float) -> dict:
    """Run one child to completion and return its record."""
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("time budget spent before the child could start")
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {args} passed the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        per_layer: list) -> dict:
    start = time.monotonic()
    deadline = start + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        lap = time.monotonic()
        plain.append(spawn(base, deadline))
        if trace:
            traced.append(spawn(base + ["--trace"], deadline))
        now = time.monotonic()
        # start another lap only if one like this would end within --seconds
        if now + (now - lap) > min(t0 + seconds, deadline):
            break
    # Set-up probes come last: a fresh process imports faster for about ten
    # seconds after one that touched a lot of memory has exited, so they
    # follow this workload's children, not whatever ran before this run.
    probes = [] if trace else [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]

    children = plain + traced
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    digests = sorted({c["digest"] for c in children})
    problems = [p for c in children for p in c["problems"]]
    if len(digests) > 1:
        problems.append(f"answers differ between children (traced or not): {digests}")
    solve = [c["solve_s"] for c in plain]
    setup = [c["setup_s"] for c in probes + plain]
    rss = [c["rss_mb"] for c in plain]
    if trace:
        metrics = {}
        for name, unit in per_layer:
            if name == "trace.overhead_s":
                value = (statistics.median(c["solve_s"] for c in traced)
                         - statistics.median(solve))
            else:
                value = statistics.median(c["layers"][name] for c in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {"calibrated_solve_s": statistics.median(c["calibrated_s"] for c in plain),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(rss)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "wall_s": time.monotonic() - start,
        "fail_frac": failed / attempted,
        "solve_s": solve, "calibrated_solve_s": [c["calibrated_s"] for c in plain],
        "probe_s": [c["probe_s"] for c in plain], "setup_s": setup,
        "setup_raw_s": [c["setup_raw_s"] for c in probes + plain],
        "deps_s": [c["deps_s"] for c in probes + plain], "peak_rss_mb": rss,
        "traced_solve_s": [c["solve_s"] for c in traced],
        "problems": problems[:20],
        "provenance": dict(children[0]["provenance"], seed=seed, commit=git_commit()),
    }
    if trace:
        detail["layers"] = {k: statistics.median(c["layers"][k] for c in traced)
                            for k in sorted(traced[0]["layers"])}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs that run in seconds, for the tests")
    args = ap.parse_args(argv)
    missing = [p for p in ("src/sysarith/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {ROOT} is not a sysarith checkout (missing {missing})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "tests"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                  workloads.PER_LAYER)
    except ChildError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
