"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload lookup --seed 1 --trace 0 [--smoke]
        [--spans PATH] [--cpu N]

Imports the program from ``src/`` of the checkout this file sits in (and
nowhere else), runs setup, run and teardown with garbage collection at its
defaults, times each phase in CPU time of the thread that runs it,
scaled to a reference core speed by ``host.SpeedSampler`` (raw CPU and
wall times are kept for the record), and prints one JSON object on
stdout.  With ``--trace 1`` the layer entry points are wrapped in timing
spans first (see ``tracer.py``), the per-layer metrics are added, and the
spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    program really comes from there."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {SRC}")


def net_counters(net) -> dict:
    stats = net.network.stats
    return {
        "sent": stats.sent,
        "delivered": stats.delivered,
        "dropped": stats.drop_total(),
        "bytes_sent": stats.bytes_sent,
        "by_type": dict(sorted(stats.by_type.items())),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    ap.add_argument("--cpu", type=int, default=None, help="run pinned to this CPU")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, "smoke" if args.smoke else "full")
    rec = patches = None
    setup, run, teardown = wl.setup, wl.run, wl.teardown
    if args.trace:
        import tracer

        rec = tracer.SpanRecorder(f"{args.workload}:seed={args.seed}")
        patches = tracer.install(rec)
        setup, run, teardown = (rec.wrap(f"phase.{fn.__name__}", fn)
                                for fn in (setup, run, teardown))
    # The program is single-threaded and does no I/O, so its cost is the
    # CPU time of the thread that runs it, scaled to a reference core speed
    # by probes taken while each phase runs (host.SpeedSampler).  Traced
    # runs probe only around each phase, so no probe lands inside a span.
    from host import SpeedSampler

    sampler = SpeedSampler(interval=None if args.trace else SpeedSampler.INTERVAL)
    setup_t = sampler.measure(setup)

    wl.bind()
    net = wl.net
    versions_before = sum(n.table.version for n in net.nodes.values())
    events_before = net.sim.events_processed
    if rec is not None:
        rec.reset_event_counts()

    run_t = sampler.measure(run)

    events = net.sim.events_processed - events_before
    table_version_delta = sum(n.table.version for n in net.nodes.values()) - versions_before
    out = wl.outcome()
    out.det.update(
        events=events,
        table_version_delta=table_version_delta,
        table_entries=sum(net.routing_table_sizes().values()),
        trails_retained=len(net.trails),
        results_retained=sum(len(n.results) for n in net.nodes.values()),
        net=net_counters(net),
    )
    if rec is not None:
        label_counts = dict(rec.label_counts)
        pending_max = rec.pending_max
        pump_events = rec.pump_events

    teardown_t = sampler.measure(teardown)

    setup_s, run_s = setup_t["s"], run_t["s"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu": args.cpu,
        "attempted": out.attempted,
        "failed": out.failed,
        "e2e": {
            "setup_s": setup_s,
            "run_s": run_s,
            "total_s": setup_s + run_s + teardown_t["s"],
            "events_per_s": events / run_s,
            "ops_per_s": out.ops / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "raw": {"setup": setup_t, "run": run_t, "teardown": teardown_t},
        "extra": out.extra,
        "det": out.det,
        "checks": out.checks,
    }
    if rec is not None:
        patches.restore()
        from layers import layer_metrics

        layers, layer_checks = layer_metrics(
            rec, out.det, label_counts, pending_max, pump_events)
        result["layers"] = layers
        result["checks"] = result["checks"] + layer_checks
        if args.spans:
            rec.write(args.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
