"""Timing spans around the public entry points of each layer.

Only traced runs import this module.  A :class:`SpanRecorder` keeps every
span in memory as ``(name, start, end, parent, root)`` columns (the run id
is one value per recorder) and writes them out when the run ends.  A
layer's self time is its span's duration minus the time its direct child
spans cover.  The self times of all spans under a phase plus that phase's
own self time add up to the phase's duration by construction; what makes
them free of double counting is that spans nest, which
:meth:`SpanTable.nesting_problems` checks.

Each name is patched where its caller looks it up: a method on its class,
a module-level function on the module that imports it (``route`` is called
from ``repro.core.node``, ``build_layout`` from ``repro.core.treep``).
Nothing in the program changes; :meth:`Patches.restore` puts every
original back.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Events whose label starts with this prefix are datagram deliveries;
#: every other event is a timer or a scheduled callback.
DGRAM_PREFIX = "dgram"

#: Timer labels the compute service arms (work stealing, job heartbeats,
#: checkpoints, the scheduler's monitor).
COMPUTE_TIMER_PREFIXES = ("steal", "job-hb", "job-ckpt", "sched-monitor")


class SpanRecorder:
    """In-memory span store: parallel arrays indexed by span id.

    A span gets its index when it begins, so a parent's index is always
    lower than its children's.  ``root`` is the outermost span open when
    it began (the phase it belongs to), or the span itself.
    """

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self.stack: List[int] = [-1]
        #: ``sim.events.*`` label counts and queue high-water mark, fed by
        #: the chained simulator event hook (:meth:`event_hook`).
        self.label_counts: Dict[str, int] = {}
        self.pending_max = 0
        #: Events fired inside the synchronous-client pump.
        self.pump_events = 0

    def intern(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn*, recording one span called *name* per call."""
        code = self.intern(name)
        codes, starts, ends, parents, roots, stack = (
            self.code, self.start, self.end, self.parent, self.root, self.stack)
        clock = self.clock

        def spanned(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            roots.append(stack[1] if len(stack) > 1 else idx)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        spanned.__wrapped__ = fn
        spanned.__name__ = getattr(fn, "__name__", name)
        spanned.__doc__ = fn.__doc__
        return spanned

    def event_hook(self, sim, inner: Optional[Callable]) -> Callable:
        """A simulator event hook that counts the event's label, samples
        the queue depth, then calls *inner* (the program's own hook)."""
        counts = self.label_counts

        def hook(ev) -> None:
            label = ev.label
            counts[label] = counts.get(label, 0) + 1
            depth = sim.pending
            if depth > self.pending_max:
                self.pending_max = depth
            if inner is not None:
                inner(ev)

        return hook

    def reset_event_counts(self) -> None:
        self.label_counts.clear()
        self.pending_max = 0
        self.pump_events = 0

    # ---------------------------------------------------------- analysis
    def columns(self) -> Dict[str, np.ndarray]:
        n = len(self.code)
        return {
            "name": np.frombuffer(self.code, dtype=np.int32, count=n).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32, count=n).copy(),
        }

    def write(self, path: str) -> None:
        """Write every span (plus the name table and run id) as ``.npz``."""
        cols = self.columns()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 **cols)


class SpanTable:
    """Per-span durations and self times of one recorder, with lookups by
    name restricted to the spans under one phase span."""

    def __init__(self, rec: SpanRecorder) -> None:
        cols = rec.columns()
        self.names = rec.names
        self.code = cols["name"]
        self.parent = cols["parent"]
        self.root = cols["root"]
        self.start = cols["start"]
        self.end = cols["end"]
        self.dur = self.end - self.start
        n = len(self.dur)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self.self_time = self.dur - child
        self.open_spans = len(rec.stack) - 1

    def nesting_problems(self, eps: float = 1e-9) -> List[str]:
        """Why the spans would double count, if they do: a span still open,
        a span reaching outside its parent, or children overlapping so that
        they cover more than their parent (negative self time)."""
        problems = []
        if self.open_spans:
            problems.append(f"{self.open_spans} spans still open")
        has_parent = self.parent >= 0
        p = self.parent[has_parent]
        outside = ((self.start[has_parent] < self.start[p] - eps)
                   | (self.end[has_parent] > self.end[p] + eps)).sum()
        if outside:
            problems.append(f"{int(outside)} spans reach outside their parent")
        negative = (self.self_time < -eps).sum()
        if negative:
            problems.append(f"{int(negative)} spans have negative self time")
        return problems

    def phase(self, name: str) -> int:
        """Index of the (single) root span called *name*."""
        code = self.names.index(name)
        hits = np.flatnonzero((self.code == code) & (self.parent < 0))
        if len(hits) != 1:
            raise ValueError(f"expected one {name!r} phase span, found {len(hits)}")
        return int(hits[0])

    def _mask(self, phase: int, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.code), dtype=bool)
        return (self.root == phase) & (self.code == self.names.index(name))

    def calls(self, phase: int, name: str) -> int:
        return int(self._mask(phase, name).sum())

    def total(self, phase: int, name: str) -> float:
        """Inclusive host seconds spent in *name* under *phase*."""
        return float(self.dur[self._mask(phase, name)].sum())

    def self_s(self, phase: int, name: str) -> float:
        """Self host seconds of *name* under *phase* (children excluded)."""
        return float(self.self_time[self._mask(phase, name)].sum())

    def self_by_layer(self, phase: int) -> Tuple[Dict[str, float], float]:
        """Self seconds per layer (the span name's first dotted part) of
        every span under *phase*, and the phase span's own self time (the
        unattributed remainder: benchmark code between layer calls)."""
        under = (self.root == phase) & (np.arange(len(self.code)) != phase)
        sums = np.bincount(self.code[under], weights=self.self_time[under],
                           minlength=len(self.names))
        layers: Dict[str, float] = {}
        for code, value in enumerate(sums):
            layer = self.names[code].split(".", 1)[0]
            if layer != "phase":
                layers[layer] = layers.get(layer, 0.0) + float(value)
        return layers, float(self.self_time[phase])


class Patches:
    """Replace attributes on classes and modules; :meth:`restore` undoes."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap(self, rec: SpanRecorder, owner: object, attr: str, name: str) -> None:
        self.replace(owner, attr, rec.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


#: (module, class name or "" for a module-level name, attribute, span name).
#: The span name's first dotted part is the layer its self time is charged to.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    # sim.engine: the loops that fire events.
    ("repro.sim.engine", "Simulator", "drain", "sim.loop"),
    ("repro.sim.engine", "Simulator", "run", "sim.loop"),
    ("repro.sim.engine", "Simulator", "step", "sim.loop"),
    # sim.network: the datagram send path.
    ("repro.sim.network", "Network", "send", "net.send"),
    # core build.
    ("repro.core.treep", "TreePNetwork", "build", "core.build"),
    ("repro.core.treep", "", "build_layout", "core.build_layout"),
    ("repro.core.routing_table", "RoutingTable", "upsert", "core.table_upsert"),
    ("repro.core.routing_table", "RoutingTable", "forget", "core.table_forget"),
    # core lookup and node dispatch.
    ("repro.core.node", "", "route", "core.route"),
    ("repro.core.node", "TreePNode", "on_datagram", "core.dispatch"),
    ("repro.core.node", "TreePNode", "issue_lookup", "core.issue_lookup"),
    # core repair.
    ("repro.core.repair", "", "apply_failure_step", "core.repair"),
    ("repro.core.repair", "", "gossip_round", "core.gossip_round"),
    ("repro.core.repair", "", "purge_dead", "core.purge_dead"),
    # cluster: service attach, the synchronous-client pump, teardown.
    ("repro.cluster.cluster", "Cluster", "with_storage", "cluster.attach"),
    ("repro.cluster.cluster", "Cluster", "with_compute", "cluster.attach"),
    ("repro.cluster.cluster", "Cluster", "with_observability", "cluster.attach"),
    ("repro.cluster.cluster", "Cluster", "shutdown", "cluster.shutdown"),
    # storage: client calls and the coordinator entry points.
    ("repro.storage.quorum", "ReplicatedStore", "put", "storage.put"),
    ("repro.storage.quorum", "ReplicatedStore", "get", "storage.get"),
    ("repro.storage.quorum", "StorageAgent", "handle_put", "storage.handle_put"),
    ("repro.storage.quorum", "StorageAgent", "handle_get", "storage.handle_get"),
    # compute.
    ("repro.compute.scheduler", "SchedulerCore", "on_submit", "compute.on_submit"),
    ("repro.compute.scheduler", "SchedulerCore", "on_complete", "compute.on_complete"),
    ("repro.compute.scheduler", "JobScheduler", "run_until_done",
     "compute.run_until_done"),
    ("repro.compute.scheduler", "JobScheduler", "schedule_submissions",
     "compute.schedule_submissions"),
    # obs: the engine hook and the record calls of the instrumented layers.
    ("repro.obs.hub", "ObsHub", "on_sim_event", "obs.hook"),
    *(("repro.obs.hub", "ObsHub", m, "obs.record") for m in (
        "lookup_begin", "lookup_hop", "lookup_end", "storage_begin", "storage_end",
        "job_begin", "job_place", "job_execute_begin", "job_execute_end",
        "job_checkpoint", "job_end")),
)


def install(rec: SpanRecorder) -> Patches:
    """Patch every entry point, the client pump and the event-hook setter."""
    import importlib

    from repro.core.treep import TreePNetwork
    from repro.sim.engine import Simulator

    patches = Patches()
    for module, owner_name, attr, name in ENTRY_POINTS:
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name)
        patches.wrap(rec, owner, attr, name)

    # The client pump also counts the events it fires.
    pump = rec.wrap("cluster.pump", TreePNetwork.pump_until_reply)

    def counting_pump(net, *args, **kwargs):
        before = net.sim.events_processed
        try:
            return pump(net, *args, **kwargs)
        finally:
            rec.pump_events += net.sim.events_processed - before

    patches.replace(TreePNetwork, "pump_until_reply", counting_pump)

    # Chain the benchmark's event sampler in front of whatever hook the
    # program installs (observability installs its own): replacing it would
    # silently switch the program's instrumentation off.
    set_hook = Simulator.set_event_hook

    def chained_set_event_hook(sim, hook):
        set_hook(sim, rec.event_hook(sim, hook))

    patches.replace(Simulator, "set_event_hook", chained_set_event_hook)

    # Every simulator starts with the sampler installed, so it also runs
    # on workloads where the program installs no hook of its own.
    init = Simulator.__init__

    def init_with_sampler(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        sim.set_event_hook(None)

    patches.replace(Simulator, "__init__", init_with_sampler)
    return patches
