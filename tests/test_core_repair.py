"""Unit tests for the self-healing machinery (purge / relink / gossip)."""

import hashlib

import numpy as np
import pytest

from repro import TreePConfig, TreePNetwork
from repro.core.repair import (
    FULL_POLICY,
    PAPER_POLICY,
    PURGE_ONLY_POLICY,
    apply_failure_step,
    converge,
    gossip_round,
    purge_dead,
    relink_node,
)


def built(n=64, seed=7):
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n)
    return net


def kill(net, count, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    victims = [int(v) for v in rng.choice(net.ids, count, replace=False)]
    net.fail_nodes(victims)
    return victims


class TestPurge:
    def test_purge_removes_dead_everywhere(self):
        net = built()
        victims = kill(net, 10)
        purge_dead(net)
        for i, node in net.nodes.items():
            if net.network.is_up(i):
                for v in victims:
                    assert not node.table.knows(v)

    def test_purge_incremental_equals_full(self):
        net1, net2 = built(), built()
        victims = kill(net1, 10)
        kill(net2, 10)
        purge_dead(net1)
        purge_dead(net2, newly_dead=victims)
        for i in net1.ids:
            if net1.network.is_up(i):
                assert set(net1.nodes[i].table.all_known()) == set(
                    net2.nodes[i].table.all_known()
                )

    def test_purge_prunes_children_lists(self):
        net = built()
        victims = set(kill(net, 15))
        purge_dead(net)
        for i, node in net.nodes.items():
            if net.network.is_up(i):
                for kids in node.children_by_level.values():
                    assert victims.isdisjoint(kids)

    def test_purge_noop_without_dead(self):
        net = built()
        assert purge_dead(net) == 0


    def test_purge_work_follows_table_size_not_dead_count(self, monkeypatch):
        """Each live table is walked once against the dead set: entry
        probes stay bounded by what the tables hold, and only entries that
        point at dead peers are forgotten (probing every table once per
        dead id made the purge cost live nodes x dead ids)."""
        from repro.core.routing_table import RoutingTable

        counts = {"get": 0, "forget": 0}
        get, forget = RoutingTable.get, RoutingTable.forget

        def counting_get(self, ident):
            counts["get"] += 1
            return get(self, ident)

        def counting_forget(self, ident):
            counts["forget"] += 1
            return forget(self, ident)

        def purge_work(dead):
            net = built(n=1000, seed=3)
            victims = set(kill(net, dead))
            live = [n for i, n in net.nodes.items() if i not in victims]
            entries = sum(n.table.size() for n in live)
            kids = sum(len(k) for n in live for k in n.children_by_level.values())
            counts.update(get=0, forget=0)
            monkeypatch.setattr(RoutingTable, "get", counting_get)
            monkeypatch.setattr(RoutingTable, "forget", counting_forget)
            removed = purge_dead(net, newly_dead=victims)
            monkeypatch.undo()
            assert counts["forget"] == removed
            # Child-list pruning is the only per-id probe left.
            assert counts["get"] <= kids
            return dict(counts), entries

        few, _ = purge_work(10)
        many, entries_many = purge_work(200)
        assert 0 < few["forget"] < many["forget"]
        assert many["get"] <= few["get"]
        # Probing every table once per dead id would cost live x dead.
        assert many["get"] + many["forget"] < entries_many


class TestRelink:
    def test_relink_restores_two_links(self):
        net = built()
        # Kill one direct neighbour of a middle node.
        mid = sorted(net.ids)[30]
        node = net.nodes[mid]
        victim = next(iter(node.table.level0))
        net.network.set_down(victim)
        purge_dead(net)
        relink_node(node, PAPER_POLICY)
        assert len(node.table.level0) >= 2
        assert victim not in node.table.level0

    def test_relink_links_nearest_known(self):
        net = built()
        mid = sorted(net.ids)[30]
        node = net.nodes[mid]
        relink_node(node, PAPER_POLICY)
        known = node.table.all_known()
        left = max((i for i in known if i < mid), default=None)
        right = min((i for i in known if i > mid), default=None)
        for expected in (left, right):
            if expected is not None:
                assert expected in node.table.level0

    def test_purge_only_policy_does_not_relink(self):
        net = built()
        mid = sorted(net.ids)[30]
        node = net.nodes[mid]
        victim = next(iter(node.table.level0))
        net.network.set_down(victim)
        purge_dead(net)
        before = set(node.table.level0)
        relink_node(node, PURGE_ONLY_POLICY)
        assert set(node.table.level0) == before

    def test_adopt_parent_when_enabled(self):
        net = built()
        # Find a node whose parent we kill.
        child = next(i for i in net.ids
                     if net.nodes[i].table.parents.get(net.nodes[i].max_level + 1))
        node = net.nodes[child]
        parent = node.table.parents[node.max_level + 1]
        net.network.set_down(parent)
        purge_dead(net)
        relink_node(node, FULL_POLICY)
        new_parent = node.table.parents.get(node.max_level + 1)
        if new_parent is not None:  # a replacement existed in its knowledge
            assert new_parent != parent
            assert net.network.is_up(new_parent)


class TestGossip:
    def test_gossip_spreads_indirect_neighbours(self):
        net = built()
        gossip_round(net, PAPER_POLICY)
        sorted_ids = sorted(net.ids)
        mid = sorted_ids[30]
        node = net.nodes[mid]
        # After one round the node knows its neighbours' neighbours.
        assert node.table.level0_indirect, "no indirect knowledge gained"

    def test_gossip_keeps_tables_bounded(self):
        net = built(n=128)
        sizes_before = [net.nodes[i].table.size() for i in net.ids]
        for _ in range(5):
            gossip_round(net, FULL_POLICY)
        sizes_after = [net.nodes[i].table.size() for i in net.ids]
        # Bounded: repeated gossip cannot blow tables up indefinitely.
        assert np.mean(sizes_after) < np.mean(sizes_before) * 4
        assert max(sizes_after) < 64

    def test_gossip_never_imports_dead(self):
        net = built()
        victims = set(kill(net, 10))
        purge_dead(net)
        for _ in range(3):
            gossip_round(net, PAPER_POLICY)
        for i, node in net.nodes.items():
            if net.network.is_up(i):
                assert victims.isdisjoint(node.table.all_known())


class TestApplyFailureStep:
    def test_survivors_keep_resolving(self):
        net = built(n=128)
        victims = kill(net, 38)  # ~30%
        apply_failure_step(net, victims, PAPER_POLICY)
        alive = net.alive_ids()
        rng = np.random.default_rng(1)
        ok = 0
        for _ in range(40):
            o, t = (int(x) for x in rng.choice(alive, 2, replace=False))
            ok += net.lookup_sync(o, t, "G").found
        assert ok >= 30  # >= 75% at 30% dead

    def test_policies_ordered_by_strength(self):
        """More healing -> no worse success rate."""
        rates = {}
        for name, policy in [("purge", PURGE_ONLY_POLICY),
                             ("paper", PAPER_POLICY),
                             ("full", FULL_POLICY)]:
            net = built(n=128)
            victims = kill(net, 38)
            apply_failure_step(net, victims, policy)
            alive = net.alive_ids()
            rng = np.random.default_rng(1)
            ok = 0
            for _ in range(40):
                o, t = (int(x) for x in rng.choice(alive, 2, replace=False))
                ok += net.lookup_sync(o, t, "G").found
            rates[name] = ok
        # Small-n batches are noisy; allow generous slack on the ordering.
        assert rates["purge"] <= rates["paper"] + 6
        assert rates["paper"] <= rates["full"] + 6
        # But the weakest policy must not beat the strongest.
        assert rates["purge"] <= rates["full"] + 4

    def test_converge_wrapper(self):
        net = built()
        victims = kill(net, 10)
        converge(net, newly_failed=victims)
        for i, node in net.nodes.items():
            if net.network.is_up(i):
                assert set(victims).isdisjoint(node.table.all_known())


class TestRepairPolicy:
    def test_paper_policy_values(self):
        assert PAPER_POLICY.relink_level0
        assert PAPER_POLICY.relink_buses
        assert not PAPER_POLICY.adopt_parents
        assert PAPER_POLICY.gossip_rounds == 1

    def test_policies_frozen(self):
        with pytest.raises(Exception):
            PAPER_POLICY.gossip_rounds = 5  # type: ignore[misc]


# ----------------------------------------------------- golden post-repair state

#: SHA-256 of every live node's routing state after three crash bursts
#: (N=500, seed 5, 10% per burst) healed by :func:`apply_failure_step`.
#: Pins converged-mode repair bit for bit: any change to what purge,
#: relink, symmetrize, gossip or child sync leave in the tables moves it.
PINNED_REPAIR_DIGESTS = {
    "paper": "ecb1f33225ef64049752222ed68920b05d523c1a2318f0d610cb6a3d11a85efb",
    "full": "1fa4f3f4f5bbf08610dd10abe7f1915dca285d5595a4d92fd652ab868ff7f6f4",
}


def repair_state_digest(policy, n=500, seed=5, bursts=3, frac=0.1):
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n)
    rng = np.random.default_rng(seed)
    for _ in range(bursts):
        alive = net.alive_ids()
        victims = [int(v) for v in
                   rng.choice(alive, int(len(alive) * frac), replace=False)]
        net.fail_nodes(victims)
        apply_failure_step(net, victims, policy)
    h = hashlib.sha256()
    for ident in sorted(net.alive_ids()):
        node = net.nodes[ident]
        t = node.table
        roles = (
            sorted(t.level0), sorted(t.level0_indirect),
            sorted((lvl, sorted(ids)) for lvl, ids in t.level_tables.items()),
            sorted(t.children), sorted(t.neighbour_children),
            sorted(t.superiors), sorted(t.parents.items()),
            sorted((lvl, list(kids))
                   for lvl, kids in node.children_by_level.items()),
            sorted(e.as_tuple() for e in t.candidates()),
        )
        h.update(f"{ident}|{roles!r}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,policy", [("paper", PAPER_POLICY),
                                         ("full", FULL_POLICY)])
def test_repair_state_digest_pinned(name, policy):
    assert repair_state_digest(policy) == PINNED_REPAIR_DIGESTS[name]
