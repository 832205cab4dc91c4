"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads lookup churn]

Runs ``run.py`` once per (workload, seed) with the ``run_seconds`` of
``BENCHMARK.json`` and prints, per metric, the median over seeds and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.  A
spread is steady when it stays below a third of the bound.

Results are only summarised together when they come from one host: the
run refuses to mix host fingerprints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode})")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(report_path, encoding="utf-8") as f:
        host = json.load(f)["host"]
    return final, host, time.perf_counter() - started


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    hosts = set()
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            final, host, took = run_once(workload, seed, spec["run_seconds"], 0)
            hosts.add(host["host_id"])
            if len(hosts) > 1:
                raise SystemExit(f"results from different hosts {sorted(hosts)}: "
                                 "host times are not comparable")
            for name in bounds:
                values[name].append(final["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {took:.1f} s, "
                  f"calibration {host['calibration_ms']:.2f} ms "
                  + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            med, rel = spread(vals)
            steady = rel < bounds[name] / 3
            worst = max(worst, rel / bounds[name])
            print(f"  {workload:8s} {name:14s} median {med:12.5g}  spread {rel:7.4f}  "
                  f"bound {bounds[name]:.2f}  {'steady' if steady else 'NOT STEADY'}",
                  flush=True)
    print(f"host {hosts.pop()}; worst spread/bound {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
