"""The benchmark's own tests, at smoke size.

Every metric of ``BENCHMARK.json`` is emitted with its unit, the
correctness checks pass, deterministic results repeat across repetitions
and between traced and untraced runs, and the benchmark refuses to run
without the program next to it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import SpanRecorder, SpanTable  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _final(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["attempted"] >= 1
    return final


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    final = _final(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", "1", "--smoke"))
    assert list(final["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
    assert final["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert (HERE / "out" / f"spans-{workload}-rep1.npz").exists()

    # run.py compared the deterministic results of every repetition, traced
    # and untraced, and the checks of each (the spans nest, the
    # event hook saw every event): correct above means they all held.
    report = json.loads((HERE / "out" / f"{workload}-seed3-trace1-smoke.json").read_text())
    assert report["problems"] == []
    assert len(report["samples"]["e2e"]) >= 2 and len(report["samples"]["traced_e2e"]) >= 2
    layers = report["per_layer"]
    assert layers["sim.events"]["value"] == report["det"]["events"]
    self_sum = sum(v["value"] for k, v in layers.items() if k.startswith("layer."))
    assert self_sum + layers["trace.unattributed_s"]["value"] == pytest.approx(
        layers["trace.run_s"]["value"])


def test_untraced_run_emits_every_end_to_end_metric():
    final = _final(_run("--workload", "kv_jobs", "--seed", "3", "--seconds", "0",
                        "--trace", "0", "--smoke"))
    assert list(final["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0

    # Each metric is the median over the repetitions.
    report = json.loads((HERE / "out" / "kv_jobs-seed3-trace0-smoke.json").read_text())
    samples = report["samples"]["e2e"]
    assert len(samples) == report["reps"] >= run.MIN_REPS
    for m in SPEC["end_to_end"]:
        values = sorted(r[m["name"]] for r in samples)
        assert values[0] <= final["metrics"][m["name"]]["value"] <= values[-1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "lookup", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_differing_deterministic_results_fail_the_run():
    def rep(digest):
        e2e = {name: 1.0 for name in run.E2E}
        return {"trace": 0, "attempted": 1, "failed": 0, "e2e": e2e, "raw": {}, "extra": {},
                "checks": [], "det": {"events": 10, "digest": digest}}

    args = argparse.Namespace(workload="lookup", seed=1, trace=0, smoke=True)
    _, same = run.summarize(args, SPEC, [rep("a"), rep("a")])
    assert same["correct"] is True
    report, final = run.summarize(args, SPEC, [rep("a"), rep("b")])
    assert final["correct"] is False
    assert "differ from rep 0 in ['digest']" in report["problems"][0]


def test_self_times_subtract_children_and_sum_to_the_phase():
    # phase 0..10, loop 1..8, route 2..4 and 5..7.
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 8.0, 10.0])
    rec = SpanRecorder("synthetic", clock=lambda: next(ticks))
    child = rec.wrap("core.route", lambda: None)
    outer = rec.wrap("sim.loop", lambda: (child(), child()))
    rec.wrap("phase.run", outer)()
    table = SpanTable(rec)
    run = table.phase("phase.run")
    assert table.calls(run, "core.route") == 2
    assert table.total(run, "core.route") == pytest.approx(4.0)
    assert table.self_s(run, "sim.loop") == pytest.approx(7.0 - 4.0)
    layers, unattributed = table.self_by_layer(run)
    assert layers == pytest.approx({"sim": 3.0, "core": 4.0})
    assert unattributed == pytest.approx(10.0 - 7.0)


def test_nesting_check_flags_spans_that_would_double_count():
    ticks = iter([0.0, 1.0, 2.0, 3.0])
    rec = SpanRecorder("synthetic", clock=lambda: next(ticks))
    rec.wrap("phase.run", rec.wrap("core.route", lambda: None))()
    assert SpanTable(rec).nesting_problems() == []

    rec.end[1] = 5.0  # the child now ends after its parent
    rec.stack.append(1)  # and is still open
    problems = SpanTable(rec).nesting_problems()
    assert problems == ["1 spans still open", "1 spans reach outside their parent",
                        "1 spans have negative self time"]
