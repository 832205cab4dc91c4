"""Per-node `ServiceRegistry` and the per-network service plane.

The registry is the ledger behind the :class:`~repro.cluster.service.Service`
protocol: for every node it records, per service, which typed-message
handlers were installed and which periodic tasks were registered, so cleanup
is owned by the registry instead of being every facade's (forgettable)
responsibility:

* node departs  → its tasks are cancelled, its handlers unregistered;
* node revives  → handlers are re-installed (state stays: crash-stop keeps
  the per-node stores, modelling a process restart over intact disk);
* service detaches → both are swept from every node, plus the service-wide
  tasks and churn hooks.

:class:`ClusterState` is the one-per-network container (created lazily and
cached on the :class:`~repro.core.treep.TreePNetwork`) holding the attached
services by name and the per-node registries.  The
:class:`~repro.cluster.cluster.Cluster` facade attaches every service
through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from repro.cluster.service import Handler, Service, ServiceContext, ServiceError
from repro.sim.engine import PeriodicTimer, TimerGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode
    from repro.core.treep import TreePNetwork

__all__ = ["ServiceRegistry", "ClusterState"]


class ServiceRegistry:
    """One node's ledger: what each service installed on it."""

    def __init__(self, node: "TreePNode") -> None:
        self.node = node
        #: service name -> exact handler registrations it owns on this node.
        self._handlers: Dict[str, Dict[type, Handler]] = {}
        #: service name -> node-scoped periodic tasks.
        self._timers: Dict[str, TimerGroup] = {}

    # ------------------------------------------------------------- handlers
    def install_handlers(self, service: str, mapping: Mapping[type, Handler]) -> None:
        """Register *mapping* on the node (``replace=True`` semantics: a
        service re-attaching, or a same-name successor, takes over).

        A message type already claimed by a *different* service on this
        node is refused — silently stealing it would leave the first
        service's ledger stale and its traffic black-holed at its detach.
        """
        for msg_type in mapping:
            for owner, owned in self._handlers.items():
                if owner != service and msg_type in owned:
                    raise ServiceError(
                        f"service {service!r} claims {msg_type.__name__} on "
                        f"node {self.node.ident}, already handled by "
                        f"service {owner!r}"
                    )
        for msg_type, handler in mapping.items():
            self.node.register_handler(msg_type, handler, replace=True)
        self._handlers[service] = dict(mapping)

    def uninstall_handlers(self, service: str) -> None:
        """Unregister exactly the handlers *service* still owns."""
        for msg_type, handler in self._handlers.pop(service, {}).items():
            self.node.unregister_handler(msg_type, handler)

    def handler_types(self, service: str) -> Tuple[type, ...]:
        return tuple(self._handlers.get(service, ()))

    # --------------------------------------------------------------- timers
    def add_timer(self, service: str, timer: PeriodicTimer) -> PeriodicTimer:
        return self._timers.setdefault(service, TimerGroup()).add(timer)

    def active_timers(self, service: str) -> int:
        group = self._timers.get(service)
        return len(group) if group is not None else 0

    def stop_timers(self, service: str) -> int:
        group = self._timers.pop(service, None)
        return group.stop_all() if group is not None else 0

    # -------------------------------------------------------------- teardown
    def teardown_service(self, service: str) -> None:
        """Registry-owned cleanup for one service on this node."""
        self.stop_timers(service)
        self.uninstall_handlers(service)

    def services(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys([*self._handlers, *self._timers]))


class ClusterState:
    """Per-network service plane: attached services + per-node registries."""

    def __init__(self, net: "TreePNetwork") -> None:
        self.net = net
        self.services: Dict[str, Service] = {}
        #: Attach order (detach-all runs in reverse: compute before storage).
        self.order: List[str] = []
        self.registries: Dict[int, ServiceRegistry] = {}
        #: Dependency edges: name -> names of attached services that hold a
        #: reference to it (recorded by ``ctx.require``).
        #: Replacing a service with live dependents is refused — they would
        #: keep driving the detached instance, whose handlers are gone.
        self.dependents: Dict[str, set] = {}

    def add_dependency(self, dependent: str, dependency: str) -> None:
        if dependent != dependency:
            self.dependents.setdefault(dependency, set()).add(dependent)

    @classmethod
    def of(cls, net: "TreePNetwork") -> "ClusterState":
        """The network's service plane, created on first use."""
        state = getattr(net, "_cluster_state", None)
        if state is None:
            state = cls(net)
            net._cluster_state = state
        return state

    # ------------------------------------------------------------ registries
    def registry_for(self, node: "TreePNode") -> ServiceRegistry:
        reg = self.registries.get(node.ident)
        if reg is None or reg.node is not node:
            # First sight of this node object — including an id reused by a
            # brand-new process, which must start with a clean ledger.
            reg = ServiceRegistry(node)
            self.registries[node.ident] = reg
        return reg

    def registry_for_ident(self, ident: int) -> ServiceRegistry:
        node = self.net.nodes.get(ident)
        if node is None:
            raise ServiceError(f"no node {ident} in the network")
        return self.registry_for(node)

    # --------------------------------------------------------------- attach
    def attach(self, service: Service) -> Service:
        """Attach *service*: dependency setup, per-node wiring, churn hooks.

        A previously attached service with the same :attr:`Service.name` is
        detached first (clean replacement — the registry equivalent of the
        old ``register_handler(..., replace=True)``).
        """
        if not service.name:
            raise ServiceError(f"{type(service).__name__} has no service name")
        if service.attached:
            if self.services.get(service.name) is service:
                return service  # already attached here: no-op
            raise ServiceError(
                f"service {service.name!r} is already attached to another network"
            )
        predecessor = self.services.get(service.name)
        if predecessor is not None:
            holders = sorted(
                d for d in self.dependents.get(service.name, ())
                if d != service.name and d in self.services
            )
            if holders:
                raise ServiceError(
                    f"cannot replace service {service.name!r}: "
                    f"{', '.join(repr(h) for h in holders)} still depend(s) "
                    f"on the attached instance; detach them first"
                )
            self.detach(predecessor)

        ctx = ServiceContext(self.net, service, self)
        service._ctx = ctx
        try:
            service.on_attach(ctx)
            for node in list(self.net.nodes.values()):
                ctx.install_node(node)
            service.on_ready(ctx)
        except Exception:
            self._unwire(service, ctx)
            # Dependencies a factory attached during on_attach are fully
            # wired (hooks and all); roll them back too, or a failed
            # with_compute would silently leave storage/discovery behind.
            self._detach_spawned(ctx)
            raise
        # Recorded only now, so dependencies a factory attached during
        # on_attach sit earlier in the order and detach_all (reverse order)
        # tears the dependent down first (compute before storage).
        self.services[service.name] = service
        self.order.append(service.name)
        self.net.add_node_hook(ctx._on_join, retroactive=False)
        self.net.add_leave_hook(ctx._on_leave)
        self.net.add_revive_hook(ctx._on_revive)
        return service

    # --------------------------------------------------------------- detach
    def _unwire(self, service: Service, ctx: ServiceContext) -> None:
        """Shared teardown: registry sweep + bookkeeping removal."""
        for registry in self.registries.values():
            registry.teardown_service(service.name)
        ctx.timers.stop_all()
        if self.services.get(service.name) is service:
            del self.services[service.name]
            self.order.remove(service.name)
        # Drop this service's dependency edges in both directions.
        self.dependents.pop(service.name, None)
        for holders in self.dependents.values():
            holders.discard(service.name)
        service._ctx = None

    def _detach_spawned(self, ctx: ServiceContext) -> None:
        """Detach dependencies *ctx*'s service spawned — except any that
        another still-attached service depends on (the same hazard the
        replacement guard refuses: they would be left driving a detached
        instance whose handlers are gone)."""
        for dep in reversed(ctx.spawned):
            if not dep.attached or self.services.get(dep.name) is not dep:
                continue
            holders = [d for d in self.dependents.get(dep.name, ())
                       if d in self.services]
            if holders:
                continue  # shared dependency: its other users keep it alive
            self.detach(dep)

    def detach(self, service: Service) -> None:
        """Registry-owned teardown of *service* (idempotent)."""
        ctx = service._ctx
        if ctx is None or ctx.state is not self:
            return
        self.net.remove_node_hook(ctx._on_join)
        self.net.remove_leave_hook(ctx._on_leave)
        self.net.remove_revive_hook(ctx._on_revive)
        self._unwire(service, ctx)
        service.on_detach()
        self._detach_spawned(ctx)

    def detach_all(self) -> None:
        """Detach every service, newest first (reverse dependency order)."""
        for name in reversed(list(self.order)):
            svc = self.services.get(name)
            if svc is not None:
                self.detach(svc)
