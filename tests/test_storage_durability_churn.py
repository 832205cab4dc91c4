"""Durability under churn: the subsystem's acceptance scenario.

A loaded N=3/W=2/R=2 store is subjected to a seeded :class:`ChurnSchedule`
that progressively kills 30% of the population; between bursts the overlay
heals its tables and the anti-entropy task re-replicates.  The invariants:

* zero key loss while every key keeps >= 1 live replica,
* after convergence every key is fully replicated again (rf == N),
* and 100% of keys remain quorum-readable.
"""

import numpy as np
import pytest

from repro import Cluster, TreePConfig
from repro.core.repair import FULL_POLICY, apply_failure_step
from repro.storage import QuorumConfig
from repro.workloads import ChurnSchedule, StorageWorkload, run_storage_ops
from repro.workloads.churn import ChurnEvent

N_NODES = 96
N_KEYS = 40
KILL_FRACTION = 0.30
BURST = 5


def burst_kill_schedule(ids, rng, kill_fraction=KILL_FRACTION, burst=BURST):
    """A seeded schedule of timed leave events killing *kill_fraction*."""
    order = [int(v) for v in rng.permutation(ids)]
    total = int(round(kill_fraction * len(ids)))
    events = [
        ChurnEvent(time=10.0 * (1 + i // burst), kind="leave", node=order[i])
        for i in range(total)
    ]
    return ChurnSchedule(events=events)


def _storage_cluster(seed, n):
    """An N=3/W=2/R=2 store plus its (unarmed) anti-entropy task."""
    return (Cluster(config=TreePConfig.paper_case1(), seed=seed).build(n)
            .with_storage(QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0))


@pytest.fixture(scope="module")
def churned():
    """Build, load, churn 30% away with AE between bursts; keep the history."""
    cluster = _storage_cluster(21, N_NODES)
    net, store, ae = cluster.net, cluster.storage, cluster.anti_entropy
    keys = [f"key/{i:03d}" for i in range(N_KEYS)]
    for k in keys:
        assert store.put(k, f"value-{k}").ok
    # First passes may relocate copies from write-time (node-local)
    # placement onto the global ideal; after that the store is clean.
    ae.converge()
    assert ae.sweep().clean

    schedule = burst_kill_schedule(net.ids, net.rng.get("churn-test"))
    min_rf_seen = store.quorum.n
    # Replay the schedule burst by burst (events are time-sorted).
    pending = list(schedule)
    while pending:
        t = pending[0].time
        burst = [e for e in pending if e.time == t]
        pending = pending[len(burst):]
        victims = [e.node for e in burst if e.kind == "leave"]
        net.fail_nodes(victims)
        apply_failure_step(net, victims, FULL_POLICY)
        ae.sweep()  # records the post-burst dip before repair lands
        min_rf_seen = min(min_rf_seen, ae.tracker.latest().min_rf)
        net.sim.drain()
        ae.converge()
    return net, store, ae, keys, schedule, min_rf_seen


def test_schedule_killed_30_percent(churned):
    net, store, ae, keys, schedule, _ = churned
    dead = {e.node for e in schedule if e.kind == "leave"}
    assert len(dead) == int(round(KILL_FRACTION * N_NODES))
    assert len(net.alive_ids()) == N_NODES - len(dead)


def test_zero_key_loss_throughout(churned):
    """No sweep ever saw a key without a live replica."""
    net, store, ae, keys, schedule, min_rf_seen = churned
    assert ae.tracker.always_durable
    assert all(r.lost == 0 for r in ae.reports)
    assert min_rf_seen >= 1


def test_full_replication_restored(churned):
    net, store, ae, keys, schedule, _ = churned
    rfs = store.replication_factors()
    assert len(rfs) == N_KEYS
    assert min(rfs.values()) == store.quorum.n


def test_all_keys_quorum_readable_after_convergence(churned):
    """The acceptance criterion: 100% of keys readable at N=3, W=2, R=2."""
    net, store, ae, keys, schedule, _ = churned
    alive = net.alive_ids()
    results = [store.get(k, via=alive[i % len(alive)])
               for i, k in enumerate(keys)]
    readable = sum(r.found for r in results)
    assert readable == N_KEYS
    assert all(r.value == f"value-{k}" for r, k in zip(results, keys))
    assert all(r.quorum_met for r in results)


def test_mixed_workload_durability_accounting(churned):
    """A post-churn read/write stream sees every acknowledged write."""
    net, store, ae, keys, schedule, _ = churned
    wl = StorageWorkload(rng=np.random.default_rng(77), keyspace=16,
                         read_fraction=0.6, key_mode="zipf",
                         key_prefix="wl")
    stats = run_storage_ops(store, wl.seed_ops() + wl.ops(120),
                            via_pool=net.alive_ids())
    assert stats.puts >= 16 and stats.gets > 0
    assert stats.put_ok == stats.puts
    assert stats.misses - stats.misses_unwritten == 0
    assert stats.stale_reads == 0
    assert stats.durability == 1.0


def test_rejoin_after_churn_is_reconciled():
    """Nodes that come back stale are overwritten by the next sweeps."""
    cluster = _storage_cluster(5, 64)
    net, store, ae = cluster.net, cluster.storage, cluster.anti_entropy
    for i in range(12):
        assert store.put(f"r{i}", i).ok
    rng = net.rng.get("rejoin-test")
    down = [int(v) for v in rng.choice(net.ids, 12, replace=False)]
    net.fail_nodes(down)
    apply_failure_step(net, down, FULL_POLICY)
    ae.converge()
    for i in range(12):  # overwrite everything while they are away
        assert store.put(f"r{i}", i + 100).ok
    for v in down:  # everyone comes back, carrying stale copies
        net.network.set_up(v)
    ae.converge()
    for i in range(12):
        g = store.get(f"r{i}", via=down[i % len(down)])
        assert g.found and g.value == i + 100
