"""The unified service layer: `Cluster` facade + `Service` lifecycle protocol.

* :class:`~repro.cluster.cluster.Cluster` — one fluent entry point building
  the overlay and composing services with owned construction order,
  cross-service dependencies and clean shutdown.
* :class:`~repro.cluster.service.Service` — the lifecycle contract every
  subsystem (dht, discovery, loadbalance, storage, anti-entropy, compute)
  implements: attach/detach, ``on_node_join`` / ``on_node_leave`` /
  ``on_node_revive`` churn callbacks, declarative typed-message handler
  registration, and periodic tasks with automatic cancellation.
* :class:`~repro.cluster.registry.ServiceRegistry` — the per-node ledger
  that owns cleanup, making handler/timer leaks structurally impossible.

Layer contract: this package *owns composition* — service construction
order, cross-service dependency wiring, per-node handler/timer ownership,
and exactly-once churn callback dispatch.  At module scope it may import
only ``repro.core`` (the overlay it composes over) and ``repro.sim``
(timers, liveness hooks); the ``with_*`` factories lazily import
``repro.services``, ``repro.storage``, ``repro.compute`` and
``repro.obs`` at composition time, so at import time subsystems depend on
this layer's protocol and not the reverse.  Checked by ``python -m
repro.lint`` (RPR201/RPR202) against ``repro/lint/layers.toml``.  See
``docs/architecture.md``.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.registry import ClusterState, ServiceRegistry
from repro.cluster.service import Service, ServiceContext, ServiceError

__all__ = [
    "Cluster",
    "ClusterState",
    "Service",
    "ServiceContext",
    "ServiceError",
    "ServiceRegistry",
]
