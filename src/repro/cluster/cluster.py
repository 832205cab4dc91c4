"""`Cluster` — the unified entry point to a TreeP deployment.

One object owns what used to be five hand-composed facades: the overlay
build, service construction order, cross-service dependencies
(compute → storage → overlay) and clean shutdown::

    from repro import Cluster, ComputeConfig, JobSpec, QuorumConfig

    cluster = (
        Cluster(seed=42)
        .build(n=128)
        .with_storage(QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0)
        .with_compute(ComputeConfig(checkpoint_interval=8.0))
    )
    cluster.storage.put("job/42", {"state": "queued"})
    cluster.compute.submit(JobSpec(job_id=1, cpu_demand=2.0, work=60.0))
    cluster.compute.run_until_done(timeout=300.0)
    cluster.shutdown()

``with_compute`` pulls in storage and discovery automatically when absent;
``shutdown`` (or the context-manager exit) detaches everything in reverse
dependency order through the service registry, so no handler or periodic
task outlives the facade.  New subsystems plug in through
:meth:`Cluster.add_service` with any :class:`~repro.cluster.service.Service`
implementation — no core changes needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

from repro.cluster.registry import ClusterState
from repro.cluster.service import Service, ServiceError
from repro.core.config import TreePConfig
from repro.core.treep import TreePNetwork

if TYPE_CHECKING:  # pragma: no cover
    from repro.compute.job import ComputeConfig
    from repro.compute.scheduler import JobScheduler
    from repro.obs.hub import ObsHub
    from repro.obs.service import Observability
    from repro.core.capacity import NodeCapacity
    from repro.core.hierarchy import HierarchyLayout
    from repro.core.ids import AssignStrategy
    from repro.core.node import TreePNode
    from repro.services.dht import TreePDht
    from repro.services.discovery import ResourceDirectory
    from repro.services.loadbalance import LoadBalancer
    from repro.sim.latency import LatencyModel
    from repro.storage.antientropy import AntiEntropy
    from repro.storage.quorum import QuorumConfig, ReplicatedStore

__all__ = ["Cluster"]


class Cluster:
    """Fluent facade over a :class:`~repro.core.treep.TreePNetwork` plus its
    attached services.

    Parameters mirror ``TreePNetwork``.
    """

    def __init__(
        self,
        config: Optional[TreePConfig] = None,
        seed: int = 0,
        *,
        latency: Optional["LatencyModel"] = None,
        loss: float = 0.0,
    ) -> None:
        self.net = TreePNetwork(config=config, seed=seed, latency=latency, loss=loss)

    # ------------------------------------------------------------- building
    @property
    def built(self) -> bool:
        return bool(self.net.nodes)

    def build(
        self,
        n: int,
        strategy: "AssignStrategy" = "random",
        capacities: Optional[Sequence["NodeCapacity"]] = None,
    ) -> "Cluster":
        """Create *n* peers in steady state; returns ``self`` (fluent)."""
        self.net.build(n, strategy=strategy, capacities=capacities)
        return self

    def build_from(
        self, ids: Sequence[int], capacities: Dict[int, "NodeCapacity"]
    ) -> "Cluster":
        """Build from explicit IDs/capacities (deterministic tests)."""
        self.net.build_from(ids, capacities)
        return self

    @property
    def layout(self) -> "HierarchyLayout":
        if self.net.layout is None:
            raise ServiceError("cluster not built: call build(n) first")
        return self.net.layout

    def _require_built(self, what: str) -> None:
        if not self.built:
            raise ServiceError(f"{what} needs a built overlay: call build(n) first")

    # ------------------------------------------------------------- services
    @property
    def state(self) -> ClusterState:
        """The network's service plane."""
        return ClusterState.of(self.net)

    @property
    def services(self) -> Tuple[Service, ...]:
        """Attached services in attach (dependency) order."""
        state = self.state
        return tuple(state.services[name] for name in state.order)

    def service(self, name: str) -> Optional[Service]:
        return self.state.services.get(name)

    def add_service(self, service: Service) -> "Cluster":
        """Attach any :class:`Service` implementation (the generic plug-in
        point new subsystems use); returns ``self`` (fluent)."""
        self.state.attach(service)
        return self

    def _get(self, name: str, hint: str) -> Service:
        svc = self.state.services.get(name)
        if svc is None:
            raise ServiceError(f"no {name!r} service attached: call {hint} first")
        return svc

    # ------------------------------------------------- the five subsystems
    def with_dht(self, replicas: int = 2) -> "Cluster":
        """Attach the simple single-coordinator DHT."""
        from repro.services.dht import TreePDht

        self._require_built("with_dht")
        self.state.attach(TreePDht(replicas=replicas))
        return self

    def with_discovery(self) -> "Cluster":
        """Attach hierarchy-walking grid resource discovery."""
        from repro.services.discovery import ResourceDirectory

        self._require_built("with_discovery")
        self.state.attach(ResourceDirectory())
        return self

    def with_loadbalance(self) -> "Cluster":
        """Attach capacity-aware hierarchical load balancing."""
        from repro.services.loadbalance import LoadBalancer

        self._require_built("with_loadbalance")
        self.state.attach(LoadBalancer())
        return self

    def with_storage(
        self,
        quorum: Optional["QuorumConfig"] = None,
        placement: str = "successor",
        anti_entropy: Optional[float] = None,
    ) -> "Cluster":
        """Attach the replicated quorum store.

        ``anti_entropy=interval`` additionally attaches the re-replication
        service (drive it with ``cluster.anti_entropy.converge()`` after
        churn, or arm the periodic sweep with ``.start()``).
        """
        from repro.storage.antientropy import AntiEntropy
        from repro.storage.quorum import ReplicatedStore

        self._require_built("with_storage")
        self.state.attach(ReplicatedStore(quorum=quorum, placement=placement))
        if anti_entropy is not None:
            self.state.attach(AntiEntropy(interval=anti_entropy))
        return self

    def with_compute(
        self,
        config: Optional["ComputeConfig"] = None,
        quorum: Optional["QuorumConfig"] = None,
    ) -> "Cluster":
        """Attach grid job execution.

        Owns the dependency chain: a missing storage service (checkpoints)
        or discovery service (matchmaking aggregates) is created and
        attached first; *quorum* only shapes a storage service created here.
        """
        from repro.compute.scheduler import JobScheduler

        self._require_built("with_compute")
        self.state.attach(JobScheduler(config=config, quorum=quorum))
        return self

    def with_observability(
        self,
        categories: Optional[Iterable[str]] = None,
        hub: Optional["ObsHub"] = None,
        slo=None,
    ) -> "Cluster":
        """Attach the observability layer (span tracing + metrics).

        Records into its own :class:`~repro.obs.hub.ObsHub` (or *hub* when
        given); read it back via :attr:`obs`, or write a trace store with
        ``cluster.observability.write(path)``.  *slo* (a spec path or
        :class:`~repro.obs.slo.SloSpec`) additionally monitors service
        objectives live during the run.  Instrumentation draws no
        randomness and schedules no events, so enabling it never changes a
        seeded run's outcome.
        """
        from repro.obs.service import Observability

        self._require_built("with_observability")
        self.state.attach(Observability(categories=categories, hub=hub,
                                        slo=slo))
        return self

    # ------------------------------------------------------ typed accessors
    @property
    def dht(self) -> "TreePDht":
        return self._get("dht", "with_dht()")  # type: ignore[return-value]

    @property
    def directory(self) -> "ResourceDirectory":
        return self._get("discovery", "with_discovery() or with_compute()")  # type: ignore[return-value]

    @property
    def balancer(self) -> "LoadBalancer":
        return self._get("loadbalance", "with_loadbalance()")  # type: ignore[return-value]

    @property
    def storage(self) -> "ReplicatedStore":
        return self._get("storage", "with_storage()")  # type: ignore[return-value]

    @property
    def anti_entropy(self) -> "AntiEntropy":
        return self._get("anti-entropy", "with_storage(anti_entropy=...)")  # type: ignore[return-value]

    @property
    def compute(self) -> "JobScheduler":
        return self._get("compute", "with_compute()")  # type: ignore[return-value]

    @property
    def observability(self) -> "Observability":
        return self._get("observability", "with_observability()")  # type: ignore[return-value]

    @property
    def obs(self) -> "ObsHub":
        """The attached observability hub (spans, events, metrics)."""
        return self.observability.hub

    # ------------------------------------------------------- overlay driving
    @property
    def sim(self):
        return self.net.sim

    @property
    def config(self) -> TreePConfig:
        return self.net.config

    @property
    def ids(self):
        return self.net.ids

    def alive_ids(self):
        return self.net.alive_ids()

    def run_for(self, duration: float) -> None:
        self.net.sim.run_for(duration)

    def lookup_sync(self, origin: int, target: int, algo="G"):
        """Resolve one lookup, stepping the sim only until it completes.

        Unlike ``TreePNetwork.lookup_sync`` (which drains the event queue
        and therefore never returns while a service's periodic timers keep
        re-arming), this stops at the lookup's own resolution or timeout —
        safe with any combination of services attached.
        """
        pend = self.net.lookup(origin, target, algo)
        sim = self.net.sim
        # The lookup's timeout event guarantees a result lands; stepping
        # can only stop early if the queue empties (no services attached).
        while pend.result is None and sim.step():
            pass
        assert pend.result is not None, "lookup left unresolved by an empty queue"
        return pend.result

    def join_node(
        self,
        ident: int,
        capacity: Optional["NodeCapacity"] = None,
        via: Optional[int] = None,
    ) -> "TreePNode":
        """Protocol-driven join; every service's ``on_node_join`` fires."""
        return self.net.join_new_node(ident, capacity=capacity, via=via)

    def fail_nodes(self, idents: Iterable[int], heal: bool = False) -> None:
        """Crash-stop peers; churn callbacks fire through the registry.

        ``heal=True`` additionally runs one converged table-repair pass
        (:func:`~repro.core.repair.apply_failure_step`), the usual
        between-bursts step of the churn drivers.
        """
        idents = list(idents)
        self.net.fail_nodes(idents)
        if heal:
            from repro.core.repair import FULL_POLICY, apply_failure_step

            apply_failure_step(self.net, idents, FULL_POLICY)

    def revive_nodes(self, idents: Iterable[int]) -> None:
        self.net.revive_nodes(idents)

    def start_maintenance(self) -> None:
        self.net.start_maintenance()

    def stop_maintenance(self) -> None:
        self.net.stop_maintenance()

    # -------------------------------------------------------------- shutdown
    def shutdown(self) -> None:
        """Detach every service (reverse dependency order) and stop the
        overlay's keep-alive loops.  Idempotent."""
        self.state.detach_all()
        self.net.stop_maintenance()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(s.name for s in self.services) or "no services"
        return f"Cluster(n={len(self.net.nodes)}, {names})"
