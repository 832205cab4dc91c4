"""`TreePNetwork` — the public orchestration API.

Typical use (this is what the quickstart example does)::

    from repro import TreePNetwork, TreePConfig

    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=42)
    net.build(n=512)
    result = net.lookup_sync(origin=net.ids[0], target=net.ids[100])
    assert result.found

The network owns the simulator, the datagram fabric, and one
:class:`~repro.core.node.TreePNode` per peer.  ``build`` constructs the
paper's *steady state* directly (see :func:`repro.core.hierarchy.build_layout`)
and installs the six routing tables of §III.c on every node; the dynamic
protocol (join, keep-alives, elections, demotion) then operates on top of
that state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


from repro.core.capacity import CapacityDistribution, NodeCapacity
from repro.core.config import TreePConfig
from repro.core.hierarchy import HierarchyLayout, build_layout
from repro.core.ids import AssignStrategy, assign_ids
from repro.core.lookup import LookupAlgorithm, LookupResult
from repro.core.maintenance import MaintenanceManager
from repro.core.messages import LookupRequest
from repro.core.node import PendingLookup, TreePNode
from repro.core.tessellation import bus_neighbours, cell_owner
from repro.obs.runtime import ambient_hub
from repro.sim.engine import SimulationError, Simulator
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.network import Network
from repro.sim.rng import RngRegistry


@dataclass(slots=True)
class RequestTrail:
    """Measurement-only record of one request's progress through the overlay.

    Populated by a hop observer the harness installs on every node; routing
    never reads it.  Needed for Figure E (hop counts of *failed* lookups,
    including ones that died by black-holing into a failed node).
    """

    max_ttl: int = 0
    last_node: int = -1


class TreePNetwork:
    """A complete simulated TreeP deployment.

    Parameters
    ----------
    config:
        Overlay configuration; defaults to the paper's case 1.
    seed:
        Root seed for every random substream.
    latency:
        Datagram latency model; defaults to ``UniformLatency(5..50 ms)``.
    loss:
        Independent datagram loss probability.
    """

    def __init__(
        self,
        config: Optional[TreePConfig] = None,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
    ) -> None:
        self.config = config if config is not None else TreePConfig.paper_case1()
        self.rng = RngRegistry(seed)
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            latency=latency if latency is not None else UniformLatency(self.rng.get("latency")),
            loss=loss,
            rng=self.rng.get("loss"),
        )
        #: Observability hub (``None`` unless an ambient capture is active
        #: or an ``Observability`` service sets it); instrumentation sites
        #: guard every record behind one ``is not None`` check.
        self.obs = ambient_hub()
        obs = self.obs
        if obs is not None:
            self.sim.set_event_hook(obs.on_sim_event)
            obs.topology_source = self.topology_snapshot
        self.nodes: Dict[int, TreePNode] = {}
        self.ids: List[int] = []
        self.capacities: Dict[int, NodeCapacity] = {}
        self.layout: Optional[HierarchyLayout] = None
        self.trails: Dict[int, RequestTrail] = {}
        self._maintenance: List[MaintenanceManager] = []
        #: Callbacks invoked for every node the network creates (at build and
        #: on protocol joins); services use this to attach per-node state and
        #: register datagram handlers without monkey-patching TreePNode.
        self.node_hooks: List[Callable[[TreePNode], None]] = []

    def add_node_hook(
        self, hook: Callable[[TreePNode], None], retroactive: bool = True
    ) -> None:
        """Register *hook* to run on every current and future node.

        With ``retroactive`` (the default) the hook also runs immediately on
        every node that already exists, so a service can attach at any time.
        """
        self.node_hooks.append(hook)
        if retroactive:
            for node in self.nodes.values():
                hook(node)

    def remove_node_hook(self, hook: Callable[[TreePNode], None]) -> None:
        """Detach *hook* from future node creations (no-op when absent).

        Services call this when shut down so a discarded instance stops
        attaching per-node state to every node that joins later.
        """
        try:
            self.node_hooks.remove(hook)
        except ValueError:
            pass

    # ------------------------------------------------------ lifecycle hooks
    def add_leave_hook(self, hook: Callable[[int], None]) -> None:
        """Run *hook(ident)* whenever a live peer crash-stops.

        Thin wrapper over the fabric's liveness transition hooks, so the
        callback fires exactly once per departure regardless of the driver
        (:meth:`fail_nodes`, a failure schedule, or a direct ``set_down``).
        """
        self.network.down_hooks.append(hook)

    def remove_leave_hook(self, hook: Callable[[int], None]) -> None:
        try:
            self.network.down_hooks.remove(hook)
        except ValueError:
            pass

    def add_revive_hook(self, hook: Callable[[int], None]) -> None:
        """Run *hook(ident)* whenever a down peer is revived (``set_up``)."""
        self.network.up_hooks.append(hook)

    def remove_revive_hook(self, hook: Callable[[int], None]) -> None:
        try:
            self.network.up_hooks.remove(hook)
        except ValueError:
            pass

    # ------------------------------------------------------------ building
    def build(
        self,
        n: int,
        strategy: AssignStrategy = "random",
        capacities: Optional[Sequence[NodeCapacity]] = None,
    ) -> HierarchyLayout:
        """Create *n* peers and assemble the steady-state hierarchy."""
        if self.nodes:
            raise RuntimeError("network already built")
        ids = assign_ids(
            self.config.space,
            n,
            self.rng.get("ids"),
            strategy=strategy,
            hosts=[("10.%d.%d.%d" % (i >> 16 & 255, i >> 8 & 255, i & 255), 4000 + i % 1000)
                   for i in range(n)] if strategy == "hash" else None,
        )
        if capacities is None:
            dist = CapacityDistribution(self.rng.get("capacity"))
            capacities = dist.sample_many(n)
        elif len(capacities) != n:
            raise ValueError(f"need {n} capacities, got {len(capacities)}")
        self.ids = ids
        self.capacities = dict(zip(ids, capacities))
        self.layout = build_layout(ids, self.capacities, self.config)
        self._instantiate_nodes()
        self._install_tables(self.layout)
        return self.layout

    def build_from(
        self, ids: Sequence[int], capacities: Dict[int, NodeCapacity]
    ) -> HierarchyLayout:
        """Build from explicit IDs/capacities (deterministic tests)."""
        if self.nodes:
            raise RuntimeError("network already built")
        self.ids = list(ids)
        self.capacities = dict(capacities)
        self.layout = build_layout(self.ids, self.capacities, self.config)
        self._instantiate_nodes()
        self._install_tables(self.layout)
        return self.layout

    def _instantiate_nodes(self) -> None:
        for ident in self.ids:
            node = TreePNode(ident, self.capacities[ident], self.config)
            self.network.register(node)
            self.nodes[ident] = node
            node.hop_observer = self._observe_hop
            node.obs = self.obs
            for hook in self.node_hooks:
                hook(node)

    def topology_snapshot(self) -> Dict[int, int]:
        """The current tree overlay as ``{node: parent}`` (parent ``-1``
        = root).

        A node at max level *m* has its real parent at level *m*\\ +1 in
        its routing table; nodes without one (the root, or nodes mid-join)
        report ``-1``.  The observability hub samples this at finalize so
        offline analytics (sick-subtree rollups) can walk the overlay.
        """
        snapshot: Dict[int, int] = {}
        for ident, node in self.nodes.items():
            parent = node.table.parents.get(node.max_level + 1)
            snapshot[ident] = parent if parent is not None else -1
        return snapshot

    def _observe_hop(self, req: LookupRequest) -> None:
        trail = self.trails.get(req.request_id)
        if trail is None:
            trail = RequestTrail()
            self.trails[req.request_id] = trail
        if req.ttl > trail.max_ttl:
            trail.max_ttl = req.ttl
        trail.last_node = req.path[-1] if req.path else req.origin
        obs = self.obs
        if obs is not None:
            obs.lookup_hop(req.request_id, trail.last_node, self.sim.now, req.ttl)

    # ------------------------------------------------------- table install
    def _install_tables(self, layout: HierarchyLayout) -> None:
        """Populate the six §III.c tables on every node from the layout."""
        now = self.sim.now
        space = self.config.space
        h = layout.height
        level_sets = [set(b) for b in layout.levels]

        def meta_of(i: int) -> dict:
            return dict(max_level=layout.max_level[i], score=layout.scores[i],
                        nc=layout.nc[i])

        for ident, node in self.nodes.items():
            node.max_level = layout.max_level[ident]
            node.height = h
            t = node.table

            # Table 1: level-0 neighbours (min two connections).
            left, right = bus_neighbours(layout.levels[0], ident)
            for n in (left, right):
                if n is not None:
                    t.add_level0(n, now, **meta_of(n))
            # Endpoints get a second-hop link so everyone keeps degree >= 2.
            if left is None and right is not None:
                _, rr = bus_neighbours(layout.levels[0], right)
                if rr is not None:
                    t.add_level0(rr, now, **meta_of(rr))
            if right is None and left is not None:
                ll, _ = bus_neighbours(layout.levels[0], left)
                if ll is not None:
                    t.add_level0(ll, now, **meta_of(ll))

            # Table 2: per-level bus neighbourhood, direct + indirect.
            for lvl in range(1, node.max_level + 1):
                bus = layout.levels[lvl]
                l1, r1 = bus_neighbours(bus, ident)
                for n in (l1, r1):
                    if n is not None:
                        t.add_level(lvl, n, now, **meta_of(n))
                if l1 is not None:
                    l2, _ = bus_neighbours(bus, l1)
                    if l2 is not None:
                        t.add_level(lvl, l2, now, **meta_of(l2))
                if r1 is not None:
                    _, r2 = bus_neighbours(bus, r1)
                    if r2 is not None:
                        t.add_level(lvl, r2, now, **meta_of(r2))
                # "parents of level i of its direct neighbours at level 0"
                for n0 in (left, right):
                    if n0 is not None:
                        p = cell_owner(space, bus, n0)
                        if p != ident:
                            t.add_level(lvl, p, now, **meta_of(p))
                # "direct neighbours of level 0 that belong to the same level i"
                for n0 in (left, right):
                    if n0 is not None and n0 in level_sets[lvl]:
                        t.add_level(lvl, n0, now, **meta_of(n0))

            # Table 3: own children + children of direct bus neighbours.
            for lvl in range(1, node.max_level + 1):
                kids = layout.children.get((ident, lvl), [])
                node.children_by_level[lvl] = list(kids)
                for k in kids:
                    t.add_child(k, now, **meta_of(k))
                bus = layout.levels[lvl]
                for nb in bus_neighbours(bus, ident):
                    if nb is not None:
                        for k in layout.children.get((nb, lvl), []):
                            t.add_neighbour_child(k, now, **meta_of(k))

            # Tables 4/6: parents. A node at max level m has its real parent
            # at level m+1; below that it covers itself.
            p = layout.parent.get(ident)
            if p is not None and p != ident:
                t.set_parent(node.max_level + 1, p, now, **meta_of(p))

            # Table 5: superior-node list — ancestors + parent's neighbours.
            for anc in layout.ancestors(ident):
                if anc != ident:
                    t.add_superior(anc, now, **meta_of(anc))
            if p is not None and p != ident and layout.max_level.get(p, 0) > 0:
                pbus = layout.levels[layout.max_level[p]]
                for pn in bus_neighbours(pbus, p):
                    if pn is not None and pn != ident:
                        t.add_superior(pn, now, **meta_of(pn))

    def live_origin(self, via: Optional[int] = None) -> TreePNode:
        """The node client requests should enter through.

        *via* selects a specific node (it must be live — a down node would
        silently drop every outbound datagram and the client would pump its
        whole deadline for nothing); otherwise the first live peer is used.
        Shared by the service facades (DHT, replicated storage).
        """
        if via is not None:
            if not self.network.is_up(via):
                raise ValueError(f"origin {via} is down")
            return self.nodes[via]
        for i in self.ids:
            if self.network.is_up(i):
                return self.nodes[i]
        raise RuntimeError("no live node to issue the request from")

    #: Abandoned request ids remembered per reply sink (oldest dropped).
    ABANDONED_CAP = 4096

    def pump_until_reply(
        self,
        replies: Dict[int, object],
        abandoned: Dict[int, None],
        rid: int,
        timeout: float,
        settle: float = 0.2,
    ):
        """Run the sim until *rid*'s reply lands in *replies*, the event
        queue empties, or *timeout* virtual seconds pass.

        The synchronous-client pump shared by the service facades.  A plain
        ``drain()`` would never return while any periodic timer (keep-
        alives, anti-entropy) keeps re-arming itself; the deadline bounds a
        black-holed request instead.  On success the sim runs *settle*
        further virtual seconds so the request's trailing datagrams (extra
        replicas, read repair) land; on timeout the rid is remembered in
        *abandoned* (insertion-ordered, capped) so a straggler reply is
        discarded instead of accreting in the sink.
        """
        sim = self.sim
        deadline = sim.now + timeout
        while rid not in replies and sim.now < deadline:
            if sim.max_events is not None and sim.events_processed >= sim.max_events:
                raise SimulationError(
                    f"pump for request {rid} exceeded max_events={sim.max_events}; "
                    "runaway same-time event cycle?"
                )
            if not sim.step():
                break
        reply = replies.pop(rid, None)
        if reply is None:
            abandoned[rid] = None
            while len(abandoned) > self.ABANDONED_CAP:
                abandoned.pop(next(iter(abandoned)))
        else:
            sim.run(until=sim.now + settle)
        return reply

    # ------------------------------------------------------------- lookups
    def lookup(
        self,
        origin: int,
        target: int,
        algo: LookupAlgorithm | str = LookupAlgorithm.GREEDY,
    ) -> PendingLookup:
        """Issue an asynchronous lookup; drain the sim to complete it."""
        if origin not in self.nodes:
            raise KeyError(f"unknown origin {origin}")
        return self.nodes[origin].issue_lookup(target, algo)

    def lookup_sync(
        self,
        origin: int,
        target: int,
        algo: LookupAlgorithm | str = LookupAlgorithm.GREEDY,
    ) -> LookupResult:
        """Issue one lookup and run the simulation until it completes."""
        pend = self.lookup(origin, target, algo)
        self.sim.drain()
        assert pend.result is not None
        return pend.result

    def run_lookup_batch(
        self,
        pairs: Iterable[Tuple[int, int]],
        algo: LookupAlgorithm | str = LookupAlgorithm.GREEDY,
    ) -> List[LookupResult]:
        """Issue many lookups, drain, and return their results in order."""
        pending = [self.lookup(o, t, algo) for o, t in pairs]
        self.sim.drain()
        out = []
        for p in pending:
            assert p.result is not None, "drain left a lookup unresolved"
            out.append(p.result)
        return out

    # ------------------------------------------------------------ failures
    def fail_nodes(self, idents: Iterable[int]) -> None:
        """Crash-stop the given peers (no repair — the paper's stress test).

        Attached services (see :mod:`repro.cluster`) observe each departure
        through the fabric's liveness hooks: their node-scoped periodic
        tasks are cancelled and their ``on_node_leave`` callbacks run.
        """
        for i in idents:
            self.network.set_down(i)

    def revive_nodes(self, idents: Iterable[int]) -> None:
        """Bring crash-stopped peers back up (same process, state intact).

        The inverse of :meth:`fail_nodes`; attached services re-install
        their datagram handlers and re-arm node-scoped periodic tasks via
        their ``on_node_revive`` callbacks.
        """
        for i in idents:
            self.network.set_up(i)

    def alive_ids(self) -> List[int]:
        return [i for i in self.ids if self.network.is_up(i)]

    # --------------------------------------------------------- maintenance
    def start_maintenance(self) -> None:
        """Arm keep-alive loops on every live node."""
        for node in self.nodes.values():
            mm = node.maintenance or MaintenanceManager(node)
            mm.start()
            if mm not in self._maintenance:
                self._maintenance.append(mm)

    def stop_maintenance(self) -> None:
        for mm in self._maintenance:
            mm.stop()

    # --------------------------------------------------------------- churn
    def join_new_node(
        self,
        ident: int,
        capacity: Optional[NodeCapacity] = None,
        via: Optional[int] = None,
    ) -> TreePNode:
        """Protocol-driven join of a brand-new peer through *via*."""
        if ident in self.nodes:
            raise ValueError(f"id {ident} already in the network")
        self.config.space.validate(ident)
        cap = capacity if capacity is not None else NodeCapacity()
        node = TreePNode(ident, cap, self.config)
        self.network.register(node)
        self.nodes[ident] = node
        self.capacities[ident] = cap
        self.ids.append(ident)
        node.hop_observer = self._observe_hop
        node.obs = self.obs
        for hook in self.node_hooks:
            hook(node)
        bootstrap = via if via is not None else next(
            i for i in self.ids if i != ident and self.network.is_up(i)
        )
        node.join_via(bootstrap)
        return node

    # ------------------------------------------------------------- metrics
    def routing_table_sizes(self) -> Dict[int, int]:
        return {i: n.table.size() for i, n in self.nodes.items()}

    def active_connection_counts(self) -> Dict[int, int]:
        return {i: len(n.table.active_connections()) for i, n in self.nodes.items()}

    @property
    def height(self) -> int:
        if self.layout is None:
            raise RuntimeError("network not built")
        return self.layout.height
