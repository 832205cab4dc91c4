"""Self-healing: what the paper's maintenance converges to after failures.

TreeP's robustness (§III.c/d) comes from cheap replication: every node also
knows its *indirect* neighbours (neighbours of neighbours), the children of
its bus neighbours, and its parent's neighbours (superior list).  Entries are
timestamped; when a peer dies, its keep-alives stop, the timestamps lapse and
every entry pointing at it is deleted — so at measurement time dead peers
are *known dead* and the router never selects them.  Failures are therefore
**structural**: a lookup fails when no surviving entry can make progress
(a region's parent chain is gone, or the network has partitioned), which is
exactly the behaviour §IV reports (≈10% failed lookups at 30% dead nodes,
rising as the topology disintegrates).

Two ways to run the healing between failure bursts:

* **Protocol mode** — :class:`~repro.core.maintenance.MaintenanceManager`
  expires entries as keep-alives stop arriving and calls
  :func:`relink_node`; gossip happens through the delta exchange.
  Message-accurate but needs many simulated seconds per step.
* **Converged mode** — :func:`apply_failure_step` applies the *fixed point*
  of that process directly, under a :class:`RepairPolicy` that says which
  healing mechanisms the maintenance window is long enough to complete.
  The experiment harness uses this so sweeps over thousands of nodes stay
  fast; an integration test asserts protocol mode converges to an
  equivalent table state on small networks.

The paper's sweep deliberately stresses the overlay: failures accumulate
with no repopulation and *no new promotions* — the surviving hierarchy only
relinks laterally.  :data:`PAPER_POLICY` encodes that; the ablation benches
flip individual knobs (e.g. parent re-adoption) to quantify each mechanism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode
    from repro.core.routing_table import RoutingTable
    from repro.core.treep import TreePNetwork


@dataclass(frozen=True)
class RepairPolicy:
    """Which healing mechanisms complete within one maintenance window.

    Attributes
    ----------
    relink_level0:
        Survivors re-establish level-0 left/right links to the nearest peer
        they still know (uses the indirect-neighbour replication).
    relink_buses:
        Same lateral relinking on every level bus.
    adopt_parents:
        Orphans re-attach to the nearest surviving peer one level up.  The
        paper's stress sweep leaves this to the (disabled) promotion
        machinery, so the default paper policy turns it off.
    refresh_neighbour_children:
        Bus neighbours re-exchange children lists, letting an uncle route
        down into an orphaned cell.
    gossip_rounds:
        How many §III.d exchange rounds fit in the window (spreads
        indirect-neighbour knowledge one hop per round).
    """

    relink_level0: bool = True
    relink_buses: bool = True
    adopt_parents: bool = False
    refresh_neighbour_children: bool = True
    gossip_rounds: int = 1


#: The maintenance the paper's sweep cadence allows: lateral healing only.
PAPER_POLICY = RepairPolicy()

#: Everything on — used by the churn example and the ablation benches.
FULL_POLICY = RepairPolicy(adopt_parents=True, gossip_rounds=2)

#: Nothing but entry expiry — lower bound for ablations.
PURGE_ONLY_POLICY = RepairPolicy(
    relink_level0=False,
    relink_buses=False,
    adopt_parents=False,
    refresh_neighbour_children=False,
    gossip_rounds=0,
)


# --------------------------------------------------------------------------
# node-local relinking (used by both modes)
# --------------------------------------------------------------------------

def _nearest_sides(ids: Iterable[int], around: int) -> tuple[Optional[int], Optional[int]]:
    """Nearest known ID strictly below and strictly above *around*."""
    left: Optional[int] = None
    right: Optional[int] = None
    for i in ids:
        if i < around and (left is None or i > left):
            left = i
        elif i > around and (right is None or i < right):
            right = i
    return left, right


def relink_node(node: "TreePNode", policy: RepairPolicy = FULL_POLICY) -> None:
    """Recompute the node's maintained links from surviving knowledge.

    Strictly node-local: candidates are the entries still present in the
    node's own routing table (dead peers were expired by the keep-alive
    TTL before this runs).
    """
    t = node.table
    me = node.ident
    # Entries are read lazily: a level-0 node with a live parent needs
    # only the known ids, not per-entry level metadata.
    if policy.relink_level0:
        level0_ids = t.all_known()
        left, right = _nearest_sides(level0_ids, me)
        t.level0 = {i for i in (left, right) if i is not None}
        # Keep the paper's minimum-two-connections rule at bus endpoints.
        if len(t.level0) < 2:
            same_side = sorted(
                (i for i in level0_ids if i not in t.level0),
                key=lambda i: abs(i - me),
            )
            for i in same_side[: 2 - len(t.level0)]:
                t.level0.add(i)

    if policy.relink_buses and node.max_level >= 1:
        known = t.candidates()
        for lvl in range(1, node.max_level + 1):
            l, r = _nearest_sides([e.ident for e in known if e.max_level >= lvl], me)
            t.level_tables[lvl] = {i for i in (l, r) if i is not None}

    if policy.adopt_parents:
        want_level = node.max_level + 1
        if t.parents.get(want_level) is None:
            ups = [e.ident for e in t.candidates() if e.max_level >= want_level]
            if ups:
                new_parent = min(ups, key=lambda i: abs(i - me))
                t.set_parent(want_level, new_parent, node.sim.now)


def _prune_children(node: "TreePNode") -> None:
    """Drop children no longer present in the table (expired)."""
    t = node.table
    for lvl, kids in list(node.children_by_level.items()):
        node.children_by_level[lvl] = [k for k in kids if t.get(k) is not None]


# --------------------------------------------------------------------------
# converged-mode primitives (harness use)
# --------------------------------------------------------------------------

def purge_dead(net: "TreePNetwork", newly_dead: Optional[Iterable[int]] = None) -> int:
    """Delete every entry pointing at a down peer from every live table.

    Equivalent to letting every keep-alive TTL lapse; returns entries
    removed.  Pass *newly_dead* to restrict the purge to peers that failed
    since the last purge (gossip never re-imports dead peers, so
    incremental purging is exact).  Each table walks its own entries
    against the dead set, so a node's purge costs its table size whatever
    the number of dead peers; *newly_dead* only saves re-checking the
    whole membership for liveness.
    """
    removed = 0
    if newly_dead is not None:
        dead = {i for i in newly_dead if not net.network.is_up(i)}
    else:
        dead = {i for i in net.ids if not net.network.is_up(i)}
    if not dead:
        return 0
    for ident, node in net.nodes.items():
        if ident in dead:
            continue
        removed += node.table.forget_known(dead)
        _prune_children(node)
    return removed


def _with_meta(t: "RoutingTable", ids: Iterable[int]) -> tuple:
    """``(id, max_level, score, nc)`` for *ids*, in iteration order.

    A role member the table holds no entry for gets ``None`` metadata:
    importing it refreshes the entry without overwriting its fields.
    """
    get = t.get
    return tuple([(i, None, None, None) if (e := get(i)) is None
                  else (i, e.max_level, e.score, e.nc) for i in ids])


class _Snapshot:
    """What a gossip round reads of one live node, frozen at round start.

    Only the roles peers import are copied, each member paired with the
    metadata the node's table holds for it: the level-0 links, the bus
    links per level and (when neighbour children are refreshed) the
    children per level.  The superior export — parents, superiors and the
    bus at the node's own top level — is built only for nodes some live
    child reads it from.  Set roles are read through a fresh copy, whose
    iteration order can differ from the live set's: imports follow that
    order, and it decides the order in which new entries join a table.
    """

    __slots__ = ("level0", "bus_ids", "buses", "children", "superior", "me",
                 "parent")

    def __init__(self, node: "TreePNode", with_children: bool,
                 with_superior: bool) -> None:
        t = node.table
        self.level0 = _with_meta(t, set(t.level0))
        self.bus_ids = {lvl: set(ids) for lvl, ids in t.level_tables.items()}
        self.buses = {lvl: _with_meta(t, ids) for lvl, ids in self.bus_ids.items()}
        self.children = ({lvl: _with_meta(t, list(kids))
                          for lvl, kids in node.children_by_level.items()}
                         if with_children else {})
        self.superior = (_with_meta(t, itertools.chain(
            t.parents.values(), set(t.superiors),
            self.bus_ids.get(node.max_level, ()))) if with_superior else ())
        self.me = (node.max_level, node.score, node.nc)
        self.parent = t.parents.get(node.max_level + 1)


def gossip_round(net: "TreePNetwork", policy: RepairPolicy = FULL_POLICY) -> None:
    """One §III.d exchange round along surviving maintained links.

    Each live node imports, into the matching table role:

    * from its level-0 links: the peers' own level-0 links (indirect
      neighbour knowledge);
    * from its bus links at level ``i``: the peers' bus links (indirect
      same-level) and — when the policy allows — the peers' children
      (the neighbour-children table);
    * from its parent (when one survives): the parent's ancestors and bus
      links (the superior-node list of Figure 2).

    Every imported role is rebuilt whole from the exchange, so imports
    only refresh entry metadata (taken from the peer's snapshot) and the
    new role sets are installed once per node.  Entries backing no role
    afterwards are trimmed, keeping table sizes within the §III.e bounds
    instead of accumulating gossip forever.  The round costs the size of
    the live tables; which peers died since the last round does not enter.
    """
    now = net.sim.now
    up = net.network.is_up
    refresh_nc = policy.refresh_neighbour_children
    live = [(ident, node) for ident, node in net.nodes.items() if up(ident)]
    read_as_parent = {node.table.parents.get(node.max_level + 1) for _, node in live}
    # Snapshot first so information moves one hop per round, matching one
    # keep-alive exchange, not transitively within a round.
    snapshot = {ident: _Snapshot(node, refresh_nc, ident in read_as_parent)
                for ident, node in live}

    for ident, node in live:
        snap = snapshot[ident]
        t = node.table
        upsert = t.upsert

        # Level-0 exchange: refresh the link, learn the peer's links.
        new_indirect: set[int] = set()
        for peer, _, _, _ in snap.level0:
            ps = snapshot.get(peer)
            if ps is None:
                continue
            upsert(peer, now, *ps.me)
            for i, ml, sc, nc in ps.level0:
                if i != ident:
                    upsert(i, now, ml, sc, nc)
                    new_indirect.add(i)
        if new_indirect:
            t.level0_indirect = new_indirect - t.level0

        # Bus exchanges per level.  Each level table is *rebuilt* as direct
        # links + one-hop indirect (the peers' own links): like the other
        # replicated roles it must not accumulate transitively across
        # rounds, or table sizes would leave the §III.e bounds.
        fresh_nc: set[int] = set()
        any_bus_exchange = False
        for lvl, bus_entries in snap.bus_ids.items():
            # Exchange only on *maintained* connections: the nearest bus
            # neighbour on each side.  Everything else in the level table
            # is indirect knowledge, not an active edge (§III.a).
            l, r = _nearest_sides(bus_entries, ident)
            bus_links = {i for i in (l, r) if i is not None}
            fresh_level: set[int] = set()
            for peer in bus_links:
                ps = snapshot.get(peer)
                if ps is None:
                    continue
                upsert(peer, now, *ps.me)
                fresh_level.add(peer)
                for i, ml, sc, nc in ps.buses.get(lvl, ()):
                    if i != ident:
                        upsert(i, now, ml, sc, nc)
                        fresh_level.add(i)
                for k, ml, sc, nc in ps.children.get(lvl, ()):
                    if k != ident:
                        upsert(k, now, ml, sc, nc)
                        fresh_nc.add(k)
            if fresh_level:
                any_bus_exchange = True
                t.level_tables[lvl] = fresh_level
        if refresh_nc and any_bus_exchange:
            t.neighbour_children = fresh_nc

        # Parent exchange: ancestors + parent's bus links -> superiors.
        ps = snapshot.get(snap.parent) if snap.parent is not None else None
        if ps is not None:
            new_sup: set[int] = set()
            for i, ml, sc, nc in ps.superior:
                if i != ident:
                    upsert(i, now, ml, sc, nc)
                    new_sup.add(i)
            t.superiors = new_sup

        t.trim_to_roles()


def _sync_children(net: "TreePNetwork") -> None:
    """Make parent/child views consistent after adoptions (ChildReport)."""
    now = net.sim.now
    for ident, node in net.nodes.items():
        if not net.network.is_up(ident):
            continue
        lvl = node.max_level + 1
        p = node.table.parents.get(lvl)
        if p is None or not net.network.is_up(p):
            continue
        parent = net.nodes.get(p)
        if parent is None or parent.max_level < lvl:
            continue
        parent.table.add_child(ident, now, max_level=node.max_level,
                               score=node.score, nc=node.nc)
        kids = parent.children_by_level.setdefault(lvl, [])
        if ident not in kids:
            kids.append(ident)
            kids.sort()


# --------------------------------------------------------------------------
# converged-mode drivers
# --------------------------------------------------------------------------

def _symmetrize_links(net: "TreePNetwork") -> None:
    """Make relinked connections mutual.

    Adopting a link starts with a Hello handshake (§III.d first contact),
    so the adopted peer always learns the adopter: if A linked B at level
    0, B gains A's entry and — both being each other's nearest known —
    links back on its next relink pass.
    """
    now = net.sim.now
    up = net.network.is_up
    for ident, node in net.nodes.items():
        if not up(ident):
            continue
        for peer in list(node.table.level0):
            pn = net.nodes.get(peer)
            if pn is not None and up(peer):
                pn.table.add_level0_indirect(ident, now, max_level=node.max_level,
                                             score=node.score, nc=node.nc)
        for lvl, ids in node.table.level_tables.items():
            for peer in list(ids):
                pn = net.nodes.get(peer)
                if pn is not None and up(peer) and pn.max_level >= lvl:
                    pn.table.add_level(lvl, ident, now, max_level=node.max_level,
                                       score=node.score, nc=node.nc)


def apply_failure_step(
    net: "TreePNetwork",
    newly_failed: Iterable[int] = (),
    policy: RepairPolicy = PAPER_POLICY,
) -> None:
    """One step of the paper's sweep: expire the victims, heal per *policy*."""
    purge_dead(net, newly_failed)
    up = net.network.is_up
    live_nodes = [n for i, n in net.nodes.items() if up(i)]
    for node in live_nodes:
        relink_node(node, policy)
    _symmetrize_links(net)
    for node in live_nodes:
        relink_node(node, policy)
    for _ in range(max(0, policy.gossip_rounds)):
        gossip_round(net, policy)
        for node in live_nodes:
            relink_node(node, policy)
    if policy.adopt_parents:
        _sync_children(net)


def converge(
    net: "TreePNetwork",
    gossip_rounds: int = 2,
    newly_failed: Optional[Iterable[int]] = None,
    policy: Optional[RepairPolicy] = None,
) -> None:
    """Full healing to the maintenance fixed point (everything enabled)."""
    pol = policy if policy is not None else RepairPolicy(
        adopt_parents=True, gossip_rounds=gossip_rounds
    )
    apply_failure_step(net, newly_failed if newly_failed is not None else (), pol)