"""Per-layer metrics of a traced run.

Times come from the spans of ``tracer.py``; counts from the simulator event
hook, the network's own counters and the workload's results.  Metrics
marked ``count`` are deterministic: they repeat exactly for one seed.
``*_self_s`` and ``layer.*`` are self times (children excluded); the other
``*_s`` are inclusive times of the named entry point.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import COMPUTE_TIMER_PREFIXES, DGRAM_PREFIX, SpanRecorder, SpanTable

#: Datagram types that carried at least 1% of ``net.sent`` on some workload
#: in the untraced runs of seeds 1-10 (shares in README.md): every traced
#: run reports each of them, 0 where a workload sends none.  The result
#: file also keeps ``net.sent.<Type>`` of every other type the run sent.
SENT_TYPES = ("LookupRequest", "LookupReply", "JobStealRequest", "StoreGet")

#: Layers whose self time is reported as ``layer.<name>_self_s``.
LAYERS = ("sim", "net", "core", "cluster", "storage", "compute", "obs")


def layer_metrics(rec: SpanRecorder, det: dict,
                  label_counts: Dict[str, int], pending_max: int,
                  pump_events: int) -> Tuple[Dict[str, tuple], List[tuple]]:
    """(name -> (value, unit), checks) for one traced run."""
    t = SpanTable(rec)
    setup, run = t.phase("phase.setup"), t.phase("phase.run")
    net = det["net"]
    m: Dict[str, tuple] = {}

    # sim.engine
    by_prefix: Dict[str, int] = {}
    for label, n in label_counts.items():
        prefix = label.split(":", 1)[0]
        by_prefix[prefix] = by_prefix.get(prefix, 0) + n
    events = sum(by_prefix.values())
    dgram = by_prefix.get(DGRAM_PREFIX, 0)
    loop_self = t.self_s(run, "sim.loop")
    m["sim.events"] = (events, "count")
    m["sim.events.dgram"] = (dgram, "count")
    m["sim.events.timer"] = (events - dgram, "count")
    m["sim.pending_max"] = (pending_max, "count")
    m["sim.loop_self_s"] = (loop_self, "s")
    m["sim.us_per_event"] = (1e6 * loop_self / events if events else 0.0, "us")

    # sim.network
    m["net.sent"] = (net["sent"], "count")
    m["net.delivered"] = (net["delivered"], "count")
    m["net.dropped"] = (net["dropped"], "count")
    m["net.bytes_sent"] = (net["bytes_sent"], "count")
    for name in sorted(set(SENT_TYPES) | set(net["by_type"])):
        m[f"net.sent.{name}"] = (net["by_type"].get(name, 0), "count")
    m["net.delivered_ratio"] = (net["delivered"] / net["sent"] if net["sent"] else 0.0,
                                "fraction")
    m["net.send_s"] = (t.self_s(run, "net.send"), "s")
    m["net.send_calls"] = (t.calls(run, "net.send"), "count")

    # core build
    m["core.build_s"] = (t.total(setup, "core.build"), "s")
    m["core.build_layout_s"] = (t.total(setup, "core.build_layout"), "s")
    m["core.table_upserts.setup"] = (t.calls(setup, "core.table_upsert"), "count")
    m["core.table_upsert_s.setup"] = (t.total(setup, "core.table_upsert"), "s")
    m["core.table_entries"] = (det["table_entries"], "count")

    # core lookup / node dispatch
    route_calls = t.calls(run, "core.route")
    route_s = t.total(run, "core.route")
    m["core.route_calls"] = (route_calls, "count")
    m["core.route_s"] = (route_s, "s")
    m["core.route_us_per_call"] = (1e6 * route_s / route_calls if route_calls else 0.0, "us")
    m["core.dispatch_self_s"] = (t.self_s(run, "core.dispatch"), "s")
    m["core.lookups_timed_out"] = (det.get("timed_out", 0), "count")
    m["core.trails_retained"] = (det["trails_retained"], "count")
    m["core.results_retained"] = (det["results_retained"], "count")

    # core repair
    m["core.repair_s"] = (t.total(run, "core.repair"), "s")
    m["core.gossip_round_s"] = (t.total(run, "core.gossip_round"), "s")
    m["core.purge_dead_s"] = (t.total(run, "core.purge_dead"), "s")
    m["core.table_upserts.run"] = (t.calls(run, "core.table_upsert"), "count")
    m["core.table_forgets.run"] = (t.calls(run, "core.table_forget"), "count")
    m["core.table_version_delta"] = (det["table_version_delta"], "count")

    # cluster
    pump_calls = t.calls(run, "cluster.pump")
    m["cluster.attach_s"] = (t.total(setup, "cluster.attach"), "s")
    m["cluster.pump_calls"] = (pump_calls, "count")
    m["cluster.pump_s"] = (t.total(run, "cluster.pump"), "s")
    m["cluster.pump_events_per_call"] = (pump_events / pump_calls if pump_calls else 0.0,
                                         "count")

    # storage
    ops = det.get("puts", 0) + det.get("gets", 0)
    store_dgrams = sum(n for k, n in net["by_type"].items() if k.startswith("Store"))
    for key in ("puts", "puts_acked", "gets", "gets_found"):
        m[f"storage.{key}"] = (det.get(key, 0), "count")
    m["storage.handle_put_s"] = (t.self_s(run, "storage.handle_put"), "s")
    m["storage.handle_get_s"] = (t.self_s(run, "storage.handle_get"), "s")
    m["storage.datagrams_per_op"] = (store_dgrams / ops if ops else 0.0, "count")

    # compute
    m["compute.jobs_completed"] = (det.get("jobs_completed", 0), "count")
    m["compute.reexecutions"] = (det.get("reexecutions", 0), "count")
    m["compute.placement_hops_total"] = (det.get("placement_hops_total", 0), "count")
    m["compute.timer_events"] = (sum(by_prefix.get(p, 0) for p in COMPUTE_TIMER_PREFIXES),
                                 "count")
    m["compute.on_submit_s"] = (t.total(run, "compute.on_submit"), "s")
    m["compute.on_complete_s"] = (t.total(run, "compute.on_complete"), "s")
    m["compute.run_until_done_s"] = (t.total(run, "compute.run_until_done"), "s")

    # obs
    m["obs.hook_calls"] = (t.calls(run, "obs.hook"), "count")
    m["obs.hook_s"] = (t.total(run, "obs.hook"), "s")
    m["obs.record_s"] = (t.total(run, "obs.record"), "s")
    m["obs.spans"] = (det.get("obs_spans", 0), "count")
    m["obs.events"] = (det.get("obs_events", 0), "count")

    # Self time per layer over the run phase; with the phase's own self
    # time (benchmark code between layer calls) they sum to the run phase
    # by construction.  They count nothing twice when the spans nest.
    layers, unattributed = t.self_by_layer(run)
    for layer in LAYERS:
        m[f"layer.{layer}_self_s"] = (layers.get(layer, 0.0), "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.run_s"] = (float(t.dur[run]), "s")

    nesting = t.nesting_problems()
    checks = [
        ("spans_nest", not nesting, "; ".join(nesting) or f"{len(t.dur)} spans nest"),
        ("hook_saw_every_event", events == det["events"],
         f"hook {events} vs simulator {det['events']}"),
    ]
    return m, checks
