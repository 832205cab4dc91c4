"""Quorum math, PUT/GET end-to-end, and stale-read repair."""

from itertools import combinations

import pytest

from repro import Cluster, TreePConfig, TreePNetwork
from repro.storage import QuorumConfig
from repro.storage.store import VersionedValue


def _cluster(seed, n, quorum, **storage):
    return (Cluster(config=TreePConfig.paper_case1(), seed=seed)
            .build(n).with_storage(quorum, **storage))


def _store(seed, n, quorum):
    """A built overlay and its quorum store, attached through `Cluster`."""
    cluster = _cluster(seed, n, quorum)
    return cluster.net, cluster.storage


@pytest.fixture()
def store_net():
    return _store(21, 96, QuorumConfig(n=3, w=2, r=2))


# ------------------------------------------------------------- quorum math
def test_quorum_validation():
    with pytest.raises(ValueError):
        QuorumConfig(n=0)
    with pytest.raises(ValueError):
        QuorumConfig(n=3, w=4)
    with pytest.raises(ValueError):
        QuorumConfig(n=3, r=0)
    with pytest.raises(ValueError):
        QuorumConfig(timeout=0)
    with pytest.raises(ValueError):
        QuorumConfig(read_fallback=-1)


def test_overlap_guarantee_brute_force():
    """W+R>N ⇒ every write quorum intersects every read quorum (and the
    guaranteed overlap is exactly w + r - n); W+R<=N admits disjoint pairs."""
    for n in range(1, 6):
        replicas = range(n)
        for w in range(1, n + 1):
            for r in range(1, n + 1):
                cfg = QuorumConfig(n=n, w=w, r=r)
                min_overlap = min(
                    len(set(ws) & set(rs))
                    for ws in combinations(replicas, w)
                    for rs in combinations(replicas, r)
                )
                assert min_overlap == max(0, cfg.overlap)
                assert cfg.strict == (min_overlap >= 1)


# ----------------------------------------------------------------- PUT/GET
def test_put_get_roundtrip(store_net):
    net, store = store_net
    r = store.put("alpha", {"v": 1})
    assert r.ok and r.quorum_met
    assert r.version == 1
    assert len(r.replicas) >= store.quorum.w
    g = store.get("alpha")
    assert g.found and g.value == {"v": 1} and g.quorum_met


def test_get_missing_key(store_net):
    net, store = store_net
    r = store.get("never-stored")
    assert not r.found and r.value is None


def test_overwrite_bumps_version(store_net):
    net, store = store_net
    assert store.put("counter", 1).version == 1
    assert store.put("counter", 2).version == 2
    g = store.get("counter")
    assert g.value == 2 and g.version == 2


def test_get_via_any_origin(store_net):
    net, store = store_net
    store.put("from-anywhere", 7)
    for via in (net.ids[0], net.ids[-1], net.ids[len(net.ids) // 2]):
        assert store.get("from-anywhere", via=via).found


def test_replicas_land_on_n_nodes(store_net):
    net, store = store_net
    r = store.put("replicated", "v")
    assert r.ok
    assert store.live_replica_count(r.key_id) == store.quorum.n


def test_tracked_keys_record_acknowledged_writes(store_net):
    net, store = store_net
    r = store.put("tracked", 1)
    assert r.key_id in store.tracked_keys
    rfs = store.replication_factors()
    assert rfs[r.key_id] == store.quorum.n


# -------------------------------------------------------------- read repair
def test_stale_replica_repaired_on_read(store_net):
    net, store = store_net
    r = store.put("repair-me", "fresh")
    key_id = r.key_id
    holders = store.replica_map()[key_id]
    assert len(holders) == 3
    # Regress one replica to a stale version behind the others' backs.
    victim = holders[-1]
    store.agents[victim].store._data[key_id] = VersionedValue("stale", 0, -1)
    g = store.get("repair-me")
    assert g.found and g.value == "fresh"
    net.sim.drain()  # let the repair replicate land
    repaired = store.agents[victim].store.get(key_id)
    assert repaired.value == "fresh" and repaired.version == g.version


def test_read_sees_latest_acknowledged_write_with_overlap(store_net):
    """The W+R>N overlap in practice: every read after an acked write
    returns that write, from any origin."""
    net, store = store_net
    for i in range(10):
        assert store.put("hot", i).ok
        g = store.get("hot", via=net.ids[i % len(net.ids)])
        assert g.found and g.value == i


# ------------------------------------------------------- degraded operation
def test_write_times_out_sloppily_when_replicas_dead():
    net, store = _store(9, 32, QuorumConfig(n=3, w=3, r=1))
    r0 = store.put("seed-key", 0)  # discover the placement
    assert r0.ok
    holders = store.replica_map()[r0.key_id]
    space = net.config.space
    coordinator = min(holders, key=lambda i: space.distance(i, r0.key_id))
    # Kill every holder except the coordinator: W=3 can no longer be met
    # (the coordinator's table still lists the dead peers as targets).
    for h in holders:
        if h != coordinator:
            net.network.set_down(h)
    r = store.put("seed-key", 1, via=coordinator)
    assert not r.ok  # quorum failed...
    assert len(r.replicas) >= 1  # ...but the achieved copies are reported
    g = store.get("seed-key", via=coordinator)
    assert g.found and g.value == 1  # sloppy: the write wasn't rolled back


def test_read_fallback_zero_disables_exploration():
    net, store = _store(9, 32, QuorumConfig(n=2, w=1, r=1, read_fallback=0))
    assert store.put("k", "v").ok
    assert store.get("k").found


def test_client_ops_return_while_periodic_antientropy_runs():
    """Regression: put/get must not drain forever into the self-re-arming
    anti-entropy timer schedule."""
    cluster = _cluster(11, 48, QuorumConfig(n=3, w=2, r=2), anti_entropy=5.0)
    net, store, ae = cluster.net, cluster.storage, cluster.anti_entropy
    ae.start()
    net.sim.max_events = 500_000  # fail loudly instead of hanging
    try:
        assert store.put("timered", 1).ok
        g = store.get("timered")
        assert g.found and g.value == 1
    finally:
        ae.stop()
        net.sim.max_events = None


def test_acknowledged_write_survives_version_restart():
    """Regression: a fresh coordinator (all prior replicas dead) restarts
    the per-key version counter; its acknowledged write must not lose LWW
    to a stale higher-versioned copy carried by a rejoining replica."""
    from repro.core.repair import FULL_POLICY, apply_failure_step
    from repro.storage import AntiEntropy

    cluster = _cluster(21, 96, QuorumConfig(n=3, w=2, r=2))
    net, store = cluster.net, cluster.storage
    for v in range(5):  # drive the version counter to 5
        assert store.put("restart", f"old-{v}").ok
    holders = store.replica_map()[store.key_id("restart")]
    net.fail_nodes(holders)  # the whole replica set dies at version 5
    apply_failure_step(net, holders, FULL_POLICY)
    r = store.put("restart", "NEW")  # fresh coordinator, counter restarted
    assert r.ok
    # One stale holder rejoins carrying the old value at version 5.
    back = holders[0]
    net.network.set_up(back)
    assert store.agents[back].store.get(store.key_id("restart")).version == 5
    cluster.add_service(AntiEntropy(interval=10.0)).anti_entropy.converge()
    g = store.get("restart")
    assert g.found and g.value == "NEW"  # no resurrection
    # The stale copy was overwritten everywhere, timestamps deciding LWW.
    assert store.agents[back].store.get(store.key_id("restart")).value == "NEW"


def test_later_write_dominates_regressed_replica():
    """The coordination timestamp leads the LWW stamp, so a new write wins
    even when a replica (here: the coordinator itself) carries a mangled
    higher-looking version counter."""
    net, store = _store(9, 32, QuorumConfig(n=3, w=2, r=2))
    r0 = store.put("bump", "a")
    key_id = r0.key_id
    holders = store.replica_map()[key_id]
    space = net.config.space
    coordinator = min(holders, key=lambda i: space.distance(i, key_id))
    # Regress the coordinator's own copy behind the replicas' backs.
    store.agents[coordinator].store._data[key_id] = VersionedValue("a", 0, -1)
    r = store.put("bump", "b", via=coordinator)
    assert r.ok
    net.sim.drain()
    for h in store.replica_map()[key_id]:
        assert store.agents[h].store.get(key_id).value == "b"


def test_close_detaches_node_hook():
    net, store = _store(9, 32, QuorumConfig(n=2, w=1, r=1))
    before = len(net.node_hooks)
    store.close()
    assert len(net.node_hooks) == before - 1
    store.close()  # idempotent
    new_id = max(net.ids) + 1
    net.join_new_node(new_id)
    assert new_id not in store.agents  # no longer covering new nodes


def test_write_finishes_immediately_when_targets_below_w():
    """A coordinator that cannot name w targets must not idle out the full
    quorum timeout waiting for acks that can never arrive."""
    # Two nodes: placement can name at most 2 targets.
    net, store = _store(9, 2, QuorumConfig(n=4, w=4, r=1, timeout=5.0))
    t0 = net.sim.now
    r = store.put("thin", 1)
    assert not r.ok  # w=4 unattainable with 2 nodes...
    assert len(r.replicas) == 2  # ...but both available copies were made
    assert net.sim.now - t0 < 5.0  # and no 5s timeout was burned


def test_pump_honours_max_events():
    """The client pump trips the simulator's max_events guard instead of
    spinning forever on a same-time event cycle."""
    from repro.sim.engine import SimulationError

    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=9)
    net.build(8)

    def perpetual():
        net.sim.call_soon(perpetual)  # same-time cycle: clock never advances

    net.sim.call_soon(perpetual)
    net.sim.max_events = 10_000
    try:
        with pytest.raises(SimulationError):
            net.pump_until_reply({}, {}, rid=1, timeout=30.0)
    finally:
        net.sim.max_events = None


def test_live_origin_rejects_down_via():
    net, store = _store(9, 16, QuorumConfig(n=2, w=1, r=1))
    net.network.set_down(net.ids[3])
    with pytest.raises(ValueError):
        store.put("x", 1, via=net.ids[3])
    with pytest.raises(ValueError):
        store.get("x", via=net.ids[3])


def test_r1_read_waits_for_real_holders_not_self_miss():
    """A coordinator that doesn't hold the key must not satisfy r=1 with
    its own instantaneous miss while the holders' replies are in flight."""
    net, store = _store(21, 96, QuorumConfig(n=3, w=2, r=1, read_fallback=0))
    r = store.put("selfmiss", "v")
    assert r.ok
    key_id = r.key_id
    # Remove the responsible coordinator's own copy; the other replicas
    # still hold it, and they are in its placement set.
    holders = store.replica_map()[key_id]
    space = net.config.space
    coordinator = min(holders, key=lambda i: space.distance(i, key_id))
    store.agents[coordinator].store.drop(key_id)
    g = store.get("selfmiss", via=coordinator)
    assert g.found and g.value == "v"


def test_equal_stamp_replicate_counts_as_ack():
    """A replica that already holds the exact incoming stamp (a repair of
    the same write raced the fanout) must ack success, not rejection —
    otherwise the write spuriously times out with every copy in place."""
    from repro.core.messages import StoreReplicate
    from repro.storage.quorum import _PendingWrite

    net, store = _store(9, 32, QuorumConfig(n=2, w=2, r=1))
    c, x = net.ids[0], net.ids[1]
    key_id, stamp = 12345, (7.0, 3, 9)
    # The replica already holds the exact stamp the fanout will carry.
    store.agents[x].store.apply(key_id, "v", 3, writer=9, timestamp=7.0)
    rid = 999_001
    store.agents[c]._writes[rid] = _PendingWrite(
        request_id=rid, origin=c, key_id=key_id, version=3,
        targets=(c, x), acks={c}, hops=0)
    net.nodes[c].send(x, StoreReplicate(rid, c, key_id, "v", 3, 9, 7.0))
    net.sim.drain()
    result = store.agents[c].replies.pop(rid)
    assert result.ok  # the equal-stamp ack completed the W=2 quorum


# ----------------------------------------------------------- async client
def test_put_async_and_get_async_deliver_via_callback(store_net):
    """The in-sim async API: callbacks fire with the coordinator results,
    nothing accretes in the reply sink (the compute checkpoint path)."""
    net, store = store_net
    seen = []
    store.put_async("async/a", {"p": 1.0}, on_done=seen.append)
    net.sim.run_for(5.0)
    assert len(seen) == 1 and seen[0].ok

    got = []
    store.get_async("async/a", on_done=got.append)
    net.sim.run_for(5.0)
    assert len(got) == 1 and got[0].found
    assert got[0].value == {"p": 1.0}


def test_fire_and_forget_put_does_not_accrete_replies(store_net):
    net, store = store_net
    origin = net.live_origin()
    agent = store.agents[origin.ident]
    before = len(agent.replies)
    for i in range(10):
        store.put_async(f"faf/{i}", i, via=origin.ident)
    net.sim.run_for(5.0)
    assert len(agent.replies) == before  # results were pre-abandoned
    assert store.get(f"faf/3").value == 3  # but the writes landed
