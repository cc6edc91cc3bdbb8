"""The benchmark's own tests, on the smoke inputs (seconds in all).

    python3 -m pytest bench/test_bench.py

They check that each workload's traced run reaches the layers its
per-layer metrics name, that traced answers equal untraced ones, that the
wrappers leave no binding behind, and that the answer checks catch
deliberately corrupted answers.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import sysarith  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced_run_reaches_named_layers(workload):
    detail, result = run_bench("--workload", workload, "--scale", "smoke",
                               "--seconds", "0", "--trace", "1")
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2  # untraced + traced
    assert set(result["metrics"]) == {name for name, _ in workloads.PER_LAYER}
    layers = detail["layers"]
    for target in workloads.ACTIVE[workload]:
        assert layers[f"{target.lstrip('_')}.calls"] > 0, target
    if workload in ("systole_cap6", "qi_l2"):
        assert layers["accel.build_split_masks.calls"] == 0


def test_untraced_run_reports_end_to_end_metrics():
    detail, result = run_bench("--workload", "cover2d_x3", "--scale", "smoke",
                               "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"calibrated_solve_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(detail["setup_s"]) > 1


def test_outside_a_checkout_the_run_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "qi_l2"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracer_restores_every_binding():
    from sysarith import constructions, search

    before = (search.splitting_in_ext, constructions.is_squarefree,
              sysarith.minimal_algebra_2d)
    tracer, _ = workloads.make_tracer()
    tracer.install()
    try:
        assert search.splitting_in_ext is not before[0]
        assert constructions.is_squarefree is not before[1]
        assert sysarith.minimal_algebra_2d is not before[2]
    finally:
        tracer.uninstall()
    assert (search.splitting_in_ext, constructions.is_squarefree,
            sysarith.minimal_algebra_2d) == before


# ---------------------------------------------------------------------------
# the checks flag corrupted answers

def smoke_answers(workload):
    ops = workloads.WORKLOADS[workload](sysarith, workloads.DEFAULT_SEED, "smoke")
    answers = [(op, op.call()) for op in ops]
    for op, answer in answers:
        assert op.check(answer) == [], op.label
    return answers


def test_check_flags_a_swapped_prime():
    (op, r), = smoke_answers("surface_l4.75")
    s = r.sets[0]
    swapped = s[:-1] + (s[-1] + 2,)  # (2, 7, 29, 37) -> (2, 7, 29, 39)
    bad = dataclasses.replace(r, sets=(swapped,))
    assert op.check(bad)


def test_check_flags_a_replaced_witness_over_q():
    (op, r), = smoke_answers("surface_l4.75")
    cert = dict(r.certificates[0])
    field = next(iter(cert))
    cert[field] = next(p for p in r.sets[0] if not workloads.splits_q(field.d, p))
    bad = dataclasses.replace(r, certificates=(cert,))
    assert any("does not split" in p for p in op.check(bad))


def test_check_flags_a_replaced_witness_over_qi():
    op, c = smoke_answers("qi_l2")[-1]
    cert = dict(c.certificate)
    ext = next(e for e in cert
               if any(not workloads.splits_qi(e, P) for P in c.algebra.ram))
    cert[ext] = next(P for P in c.algebra.ram if not workloads.splits_qi(ext, P))
    bad = dataclasses.replace(c, certificate=cert)
    assert any("does not split" in p for p in op.check(bad))


def test_check_flags_a_wrong_systole_field():
    op, r = smoke_answers("systole_cap6")[0]
    other = sysarith.quad_field(2 if r.field.d != 2 else 3)
    bad = dataclasses.replace(r, field=other)
    assert op.check(bad)


def test_check_flags_a_flipped_exclusion_verdict():
    op, rep = smoke_answers("qi_l2")[1]
    bad = dataclasses.replace(rep, valid=not rep.valid)
    assert op.check(bad)


def test_check_flags_a_wrong_cover_factor():
    op, c = smoke_answers("cover2d_x3")[0]
    ram = sorted(c.algebra.ram)
    bad = dataclasses.replace(c, algebra=sysarith.algebra_q(ram[:-1] + [2]))
    assert op.check(bad)


def test_seeds_pick_recorded_inputs():
    assert [e["ram"] for e in workloads.systole_sets(0)] == [
        [2, 31], [2, 11], [3, 5], [2, 7, 19, 31, 47, 79]]
    assert workloads.systole_sets(7) == workloads.systole_sets(7)
    assert workloads.systole_sets(7) != workloads.systole_sets(8)
    rows = workloads.qi_rows(0, "full")
    assert len(rows) == 21 and rows[0] == (1.0, workloads.EXPECTED["qi"]["rows"][0]["choices"][0])
    assert workloads.qi_rows(5, "full") == workloads.qi_rows(5, "full")


def test_speed_probe_samples_while_entered():
    import signal
    import time

    from speed import SpeedProbe

    probe = SpeedProbe()
    with probe:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.1:
            sum(range(1000))
    assert len(probe.samples) >= 5 and probe.spent_s > 0
    assert probe.calibrate(1.0) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
