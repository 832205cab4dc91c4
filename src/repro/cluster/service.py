"""The `Service` lifecycle protocol: one contract for every overlay service.

Before this layer existed each subsystem invented its own wiring —
:class:`~repro.services.dht.TreePDht`, :class:`~repro.storage.quorum.ReplicatedStore`
and :class:`~repro.compute.scheduler.JobScheduler` all took a network and
independently spliced handlers, node hooks and periodic timers onto nodes,
leaving the caller to compose them in a fragile, order-sensitive way.  A
:class:`Service` instead *declares* what it needs and a
:class:`ServiceContext` (handed to it at attach time) does the wiring with
full bookkeeping, so everything a service installs can be torn down again —
per node when a peer departs, or wholesale when the service is detached.

Lifecycle
---------
::

    attach            on_attach(ctx)          service-wide setup
      └ per node      setup_node(node)        per-node state (stores, agents)
                      node_handlers(node)     declarative handler mapping
      └ finally       on_ready(ctx)           runs once all nodes are wired
    churn             on_node_join(node)      exactly once per protocol join
                      on_node_leave(ident)    exactly once per crash-stop
                      on_node_revive(node)    exactly once per revival
    detach            on_detach()             after registry-owned cleanup

The registry (see :mod:`repro.cluster.registry`) records every handler and
periodic task per ``(service, node)``; departures cancel the node's tasks
and unregister its handlers, revivals re-install them, and
:meth:`Service.detach` sweeps everything — the handler/hook leak the old
facades had is structurally impossible.

Construction goes through :class:`~repro.cluster.cluster.Cluster`
(``Cluster(...).build(n).with_storage(...)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.sim.engine import PeriodicTimer, TimerGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.registry import ClusterState
    from repro.core.config import TreePConfig
    from repro.core.node import TreePNode
    from repro.core.treep import TreePNetwork
    from repro.sim.engine import Simulator

__all__ = ["Service", "ServiceContext", "ServiceError"]

#: Handler signature services declare: ``handler(src, payload)``.
Handler = Callable[[int, Any], None]


class ServiceError(RuntimeError):
    """Misuse of the service lifecycle (double attach, missing dependency…)."""


class Service:
    """Base class of the service lifecycle protocol.

    Subclasses set :attr:`name` (the registry key — attaching a second
    service with the same name cleanly replaces the first) and override any
    of the lifecycle hooks below.  All wiring goes through the
    :class:`ServiceContext` received in :meth:`on_attach`, never directly
    through ``node.register_handler`` / ``sim.every`` — that is what makes
    teardown automatic.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    def __init__(self) -> None:
        self._ctx: Optional["ServiceContext"] = None

    # ------------------------------------------------------------ lifecycle
    @property
    def attached(self) -> bool:
        return self._ctx is not None

    @property
    def ctx(self) -> "ServiceContext":
        if self._ctx is None:
            raise ServiceError(
                f"service {self.name!r} is not attached to a network"
            )
        return self._ctx

    def detach(self) -> None:
        """Tear this service down: unregister every handler it installed,
        cancel every periodic task it registered, drop its churn callbacks.
        Idempotent (matching the old facades' ``close``)."""
        if self._ctx is not None:
            self._ctx.state.detach(self)

    # --------------------------------------------------- overridable hooks
    def on_attach(self, ctx: "ServiceContext") -> None:
        """Service-wide setup; runs before any per-node wiring.  Resolve
        cross-service dependencies here via :meth:`ServiceContext.require`."""

    def on_ready(self, ctx: "ServiceContext") -> None:
        """Runs once every existing node has been through :meth:`setup_node`
        (role election, initial aggregate computation, …)."""

    def on_detach(self) -> None:
        """Runs after the registry removed this service's handlers/tasks."""

    def setup_node(self, node: "TreePNode") -> None:
        """Create per-node state (stores, agents).  Called for every node
        that exists at attach time and for every node created afterwards."""

    def node_handlers(self, node: "TreePNode") -> Mapping[type, Handler]:
        """Declarative typed-message handler registration: the mapping is
        installed on *node* through the registry (after :meth:`setup_node`),
        re-installed on revival, and unregistered on departure/detach."""
        return {}

    def on_node_join(self, node: "TreePNode") -> None:
        """Churn callback: a brand-new peer joined (post :meth:`setup_node`)."""

    def on_node_leave(self, ident: int) -> None:
        """Churn callback: a live peer crash-stopped.  The registry has
        already cancelled the node's periodic tasks and unregistered this
        service's handlers from it."""

    def on_node_revive(self, node: "TreePNode") -> None:
        """Churn callback: a crash-stopped peer came back (same process,
        per-node state intact).  Handlers are already re-installed; re-arm
        any node-scoped periodic tasks here."""


class ServiceContext:
    """What a service sees of the network: mediated, bookkept wiring.

    One context per attached service; created by
    :meth:`~repro.cluster.registry.ClusterState.attach`.
    """

    def __init__(self, net: "TreePNetwork", service: Service, state: "ClusterState") -> None:
        self.net = net
        self.service = service
        self.state = state
        #: Service-wide periodic tasks (node-scoped ones live in the
        #: per-node registries); cancelled wholesale at detach.
        self.timers = TimerGroup()
        #: Services spawned by :meth:`require` factories on behalf of this
        #: service; detached with it (dependency ownership).
        self.spawned: list[Service] = []

    # ------------------------------------------------------------ shortcuts
    @property
    def sim(self) -> "Simulator":
        return self.net.sim

    @property
    def config(self) -> "TreePConfig":
        return self.net.config

    # ---------------------------------------------------------- composition
    def require(
        self,
        name: str,
        factory: Optional[Callable[[], Service]] = None,
    ) -> Service:
        """Resolve the attached service *name* (cross-service dependency).

        With a *factory*, a missing dependency is constructed, attached to
        the same network, recorded as owned by this service (detached with
        it), and returned; without one, a missing dependency raises.
        """
        svc = self.state.services.get(name)
        if svc is None:
            if factory is None:
                raise ServiceError(
                    f"service {self.service.name!r} requires {name!r}, which "
                    f"is not attached; add it to the Cluster first"
                )
            svc = factory()
            self.state.attach(svc)
            self.spawned.append(svc)
        # Record the edge either way: replacing a service some attached
        # dependent still points at is refused by the registry.
        self.state.add_dependency(self.service.name, name)
        return svc

    # -------------------------------------------------------- periodic tasks
    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        node: Optional[int] = None,
        jitter: Optional[Callable[[], float]] = None,
        label: str = "",
    ) -> PeriodicTimer:
        """Register a periodic task with automatic cancellation.

        Service-scoped by default (cancelled at detach); with ``node=ident``
        the task is filed in that node's registry and additionally cancelled
        when the node departs.
        """
        timer = self.net.sim.every(
            interval, callback, jitter=jitter,
            label=label or f"{self.service.name}-task",
        )
        if node is None:
            self.timers.add(timer)
        else:
            self.state.registry_for_ident(node).add_timer(self.service.name, timer)
        return timer

    # ------------------------------------------------- registry-driven wiring
    def install_node(self, node: "TreePNode") -> None:
        """Per-node setup + declarative handler installation (attach/join)."""
        self.service.setup_node(node)
        mapping = dict(self.service.node_handlers(node))
        if mapping:
            self.state.registry_for(node).install_handlers(self.service.name, mapping)

    def reinstall_handlers(self, node: "TreePNode") -> None:
        """Re-register this service's handlers on a revived node."""
        mapping = dict(self.service.node_handlers(node))
        if mapping:
            self.state.registry_for(node).install_handlers(self.service.name, mapping)

    # --------------------------------------------------------- churn relays
    def _on_join(self, node: "TreePNode") -> None:
        self.install_node(node)
        self.service.on_node_join(node)

    def _on_leave(self, ident: int) -> None:
        registry = self.state.registries.get(ident)
        if registry is not None:
            registry.teardown_service(self.service.name)
        self.service.on_node_leave(ident)

    def _on_revive(self, ident: int) -> None:
        node = self.net.nodes.get(ident)
        if node is not None:
            self.reinstall_handlers(node)
            self.service.on_node_revive(node)
