"""Run one benchmark workload and print every metric by name and unit.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``) with garbage
collection at its defaults, pinned to the core that ran a short probe loop
fastest just before it (``host.fastest_cpu``).  Repetitions repeat while
the next one fits in ``--seconds`` of host time (at least ``MIN_REPS``).
Times are CPU seconds of the thread that runs the program, scaled to a
reference core speed (``host.SpeedSampler``); raw CPU and wall times are
kept in the result file.  Every repetition does identical work, and each
metric is the median over the repetitions (the result file keeps every
sample).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the fastest traced one, plus ``trace.overhead_ratio``
(traced over untraced ``run_s``).

The run fails (exit code 1) when a correctness check fails, when the
deterministic results differ between repetitions of one seed (traced or
not), or when a metric of ``BENCHMARK.json`` is missing.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result, with the host fingerprint, is written to
``perfbench/out/``.
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

from host import fastest_cpu, fingerprint

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_REPS = 3
#: Traced runs alternate untraced and traced repetitions, at least this
#: many pairs.
MIN_PAIRS = 2
#: No repetition starts after this much host time, whatever ``--seconds``
#: says, so a run ends well within the 180 s it may take.
BUDGET_S = 120.0
REP_TIMEOUT_S = 170.0

#: End-to-end metrics and their units; each is the median over the
#: untraced repetitions.
E2E = {
    "setup_s": "s",
    "run_s": "s",
    "total_s": "s",
    "events_per_s": "ev/s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_worker(workload: str, seed: int, trace: int, smoke: bool, rep: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    cpu = fastest_cpu()
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-rep{rep}.npz")]
    # One core's worth of compute: keep numeric libraries single-threaded.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed ({proc.returncode}): {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(args) -> list:
    """Worker results in run order, in groups: traced runs alternate
    untraced and traced repetitions, untraced runs have one per group."""
    kinds, least = ([0, 1], MIN_PAIRS) if args.trace else ([0], MIN_REPS)
    reps: list = []
    groups = 0
    started = time.perf_counter()
    group = 0.0  # host time of the slowest group
    while True:
        elapsed = time.perf_counter() - started
        if groups >= least and elapsed + group > min(args.seconds, BUDGET_S):
            return reps
        t0 = time.perf_counter()
        for trace in kinds:
            reps.append(run_worker(args.workload, args.seed, trace, args.smoke, len(reps)))
        groups += 1
        group = max(group, time.perf_counter() - t0)


def median_rep(reps: list) -> dict:
    """The repetition with the median ``run_s`` (the lower middle one of an
    even count), so its per-repetition figures belong together."""
    ordered = sorted(reps, key=lambda r: r["e2e"]["run_s"])
    return ordered[(len(ordered) - 1) // 2]


def summarize(args, spec: dict, reps: list) -> tuple:
    """(report, final line) from the repetitions."""
    plain = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    problems = []
    for i, r in enumerate(reps):
        for name, passed, detail in r["checks"]:
            if not passed:
                problems.append(f"rep {i} (trace {r['trace']}): check {name} failed: {detail}")
    det0 = reps[0]["det"]
    for i, r in enumerate(reps[1:], start=1):
        if r["det"] != det0:
            diff = sorted(k for k in set(det0) | set(r["det"]) if det0.get(k) != r["det"].get(k))
            problems.append(f"rep {i} (trace {r['trace']}): deterministic results "
                            f"differ from rep 0 in {diff}")

    e2e = {name: {"value": float(statistics.median(r["e2e"][name] for r in plain)),
                  "unit": unit} for name, unit in E2E.items()}
    # Workload metrics: host-time ones from the median repetition, the
    # others are deterministic and the same in every repetition.
    extra = {name: {"value": value, "unit": unit}
             for name, (value, unit) in median_rep(plain)["extra"].items()}
    layers = {}
    if traced:
        middle = median_rep(traced)
        layers = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in middle["layers"].items()}
        layers["trace.overhead_ratio"] = {
            "value": middle["e2e"]["run_s"] / e2e["run_s"]["value"], "unit": "ratio"}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    available = layers if args.trace else e2e
    metrics = {}
    for m in wanted:
        got = available.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} not measured")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} unit {got['unit']} != {m['unit']}")
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "reps": len(reps),
        "end_to_end": e2e,
        "workload_metrics": extra, "per_layer": layers,
        "det": det0, "problems": problems,
        "samples": {"e2e": [r["e2e"] for r in plain],
                    "raw": [r["raw"] for r in plain],
                    "traced_e2e": [r["e2e"] for r in traced]},
    }
    final = {"correct": not problems,
             "attempted": sum(r["attempted"] for r in reps),
             "failed": sum(r["failed"] for r in reps),
             "metrics": metrics}
    return report, final


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    host = fingerprint()
    OUT.mkdir(exist_ok=True)
    reps = repetitions(args)
    report, final = summarize(args, spec, reps)
    report["host"] = host

    print(f"host {host['host_id']}: {host['cpu_model']}, nproc {host['nproc']}, "
          f"python {host['python']}, numpy {host['numpy']}, "
          f"calibration {host['calibration_ms']:.2f} ms")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {report['reps']} repetitions")
    sections = [("end-to-end", report["end_to_end"]),
                ("workload", report["workload_metrics"])]
    if args.trace:
        sections.append(("per layer (median traced repetition)", report["per_layer"]))
    for title, table in sections:
        print(f"-- {title}")
        for name, m in table.items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:34s} {value:>14s} {m['unit']}")
    for problem in report["problems"]:
        print(f"FAIL {problem}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
