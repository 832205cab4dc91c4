"""repro — a full reproduction of *TreeP: A Tree Based P2P Network
Architecture* (Hudzia, Kechadi, Ottewill — CLUSTER 2005).

Public surface:

* :class:`~repro.cluster.Cluster` — **the recommended entry point**: one
  fluent facade building the overlay and composing services
  (``Cluster(seed=7).build(128).with_storage(...).with_compute(...)``)
  with owned construction order, cross-service dependencies and clean
  shutdown.
* :class:`~repro.cluster.Service` — the lifecycle protocol every subsystem
  implements (attach/detach, churn callbacks, declarative handler
  registration, auto-cancelled periodic tasks); subclass it to plug new
  services into the same registry.
* :class:`~repro.core.treep.TreePNetwork` — build and drive a TreeP overlay.
* :class:`~repro.core.config.TreePConfig` — all tunables; presets for the
  paper's two experimental cases.
* :class:`~repro.core.lookup.LookupAlgorithm` — G / NG / NGSA.
* :mod:`repro.services` — DHT, resource discovery and load balancing on top
  of the overlay.
* :mod:`repro.storage` — the replicated key/value subsystem: quorum
  reads/writes (:class:`~repro.storage.quorum.ReplicatedStore`), versioned
  per-node stores, and churn-driven anti-entropy re-replication.
* :mod:`repro.compute` — the grid job-execution subsystem: a message-level
  distributed scheduler (:class:`~repro.compute.scheduler.JobScheduler`)
  with aggregate-walking matchmaking, heartbeat failure detection,
  checkpointed re-execution on top of the replicated store, DAG
  dependencies and sibling work stealing.
* :mod:`repro.baselines` — Chord and flooding comparators on the same
  simulated substrate.
* :mod:`repro.experiments` — one runner per figure of the paper's §IV.
* :mod:`repro.bench` — the unified benchmark harness:
  ``python -m repro.bench run|list|compare|report|campaign`` over 23
  declarative scenarios — including the ``scale_*`` 10k-node sweeps
  behind ``docs/performance.md`` — writing versioned ``BenchResult``
  JSON to ``benchmarks/out/`` (the repo's perf trajectory); ``campaign``
  fans a scenario × params × seeds matrix across worker processes and
  aggregates mean/std/confidence-interval per metric, gated on CI
  overlap by ``compare``.
* :mod:`repro.obs` — the unified observability layer: span/event tracing
  across lookups, quorum RW, anti-entropy and job lifecycles
  (``Cluster(...).with_observability()`` or ``--trace-out`` on the bench
  CLI), a metrics registry with streaming quantile histograms, a columnar
  on-disk trace store, a cluster health engine (declarative SLO rules
  with streaming + offline evaluation, per-node/subtree health scores,
  causal critical-path analytics, Perfetto export), and ``python -m
  repro.obs summary|runs|timeline|slowest|health|slo|critpath|
  export-perfetto|export`` to query it — see ``docs/observability.md``.

See README.md for the module map ("Module map") and the per-subsystem
overviews, and ``docs/`` for the architecture, API, benchmark and performance guides;
each ``benchmarks/bench_*.py`` is a thin pytest binding onto the harness
and still prints the measured-vs-paper record it regenerates.
"""

from repro.cluster import Cluster, Service, ServiceContext, ServiceError
from repro.compute import ComputeConfig, JobResult, JobScheduler, JobSpec
from repro.core.capacity import CapacityDistribution, NodeCapacity
from repro.core.config import TreePConfig
from repro.core.ids import IdSpace
from repro.core.lookup import LookupAlgorithm, LookupResult
from repro.core.treep import TreePNetwork
from repro.obs import MetricsRegistry, ObsHub, TraceReader
from repro.storage import AntiEntropy, QuorumConfig, ReplicatedStore

__version__ = "1.11.0"

__all__ = [
    "AntiEntropy",
    "CapacityDistribution",
    "Cluster",
    "ComputeConfig",
    "IdSpace",
    "JobResult",
    "JobScheduler",
    "JobSpec",
    "LookupAlgorithm",
    "LookupResult",
    "MetricsRegistry",
    "NodeCapacity",
    "ObsHub",
    "QuorumConfig",
    "ReplicatedStore",
    "Service",
    "ServiceContext",
    "ServiceError",
    "TraceReader",
    "TreePConfig",
    "TreePNetwork",
    "__version__",
]
