"""Capacity-aware load balancing on the TreeP hierarchy.

The paper's motivation (§I, §V): the resource-oriented hierarchy lets the
middleware "take advantage of the different peers' characteristics" and
"rapidly adapt to different situations (load balancing, failures, network
traffic)".  This module implements the natural placement scheme on that
structure: a task enters at any peer and is routed down the hierarchy, at
each step into the child subtree with the most *remaining* capacity, until
it lands on a leaf-level peer — the tree analogue of least-loaded-of-``d``
placement.

Load is tracked as CPU-share units against each node's ``cpu`` capability;
the balancer keeps **cached** subtree totals, incrementally updated on
assign/release along the node's ancestor chain, so each routing decision is
O(children + height) — independent of subtree size.  Liveness changes
(failures, joins) invalidate the cache; it is rebuilt lazily on the next
placement (or eagerly via :meth:`LoadBalancer.refresh`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.service import Service, ServiceContext
from repro.core.treep import TreePNetwork

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode


@dataclass(frozen=True)
class Task:
    """One unit of placeable work."""

    task_id: int
    cpu_demand: float = 1.0

    def __post_init__(self) -> None:
        if self.cpu_demand <= 0:
            raise ValueError(f"cpu_demand must be > 0, got {self.cpu_demand}")


@dataclass
class Placement:
    task: Task
    node: Optional[int]
    hops: int


class LoadBalancer(Service):
    """Hierarchical least-loaded placement over a built TreeP network.

    Construct through :meth:`repro.cluster.Cluster.with_loadbalance`.
    """

    name = "loadbalance"

    def __init__(self) -> None:
        super().__init__()
        self.net: Optional[TreePNetwork] = None
        #: CPU-share units currently assigned per node.
        self.assigned: Dict[int, float] = {}
        self.placements: List[Placement] = []
        #: Cached subtree headroom, keyed by node id (the subtree rooted at
        #: the node's own max level — the only shape placement queries).
        self._subtree: Dict[int, float] = {}
        #: Per-node ancestor chain whose cached totals contain the node.
        self._chains: Dict[int, Tuple[int, ...]] = {}
        self._liveness_key: Tuple[int, int] = (-1, -1)

    # ------------------------------------------------------------ lifecycle
    def on_attach(self, ctx: ServiceContext) -> None:
        if ctx.net.layout is None:
            raise RuntimeError("network must be built first")
        self.net = ctx.net
        self.assigned = {i: 0.0 for i in ctx.net.ids}
        self.refresh()

    def setup_node(self, node: "TreePNode") -> None:
        self.assigned.setdefault(node.ident, 0.0)

    # ------------------------------------------------------------- capacity
    def headroom(self, ident: int) -> float:
        """Remaining CPU capacity of one node (>= 0)."""
        cap = self.net.capacities[ident]
        return max(0.0, cap.effective_cpu - self.assigned[ident])

    def _recompute_subtree(self, node_id: int, lvl: int) -> float:
        """Reference recursion (O(subtree)); the cache must always agree."""
        layout = self.net.layout
        assert layout is not None
        total = self.headroom(node_id) if self.net.network.is_up(node_id) else 0.0
        if lvl == 0:
            return total
        for c in layout.children.get((node_id, lvl), ()):
            total += self._recompute_subtree(c, lvl - 1 if lvl > 1 else 0)
        return total

    def _current_liveness_key(self) -> Tuple[int, int]:
        # The epoch counts every individual crash/revival, so an equal
        # number of failures and rejoins between placements cannot alias.
        return (len(self.net.nodes), self.net.network.liveness_epoch)

    def refresh(self) -> None:
        """Rebuild the cached subtree totals (after failures or joins).

        One bottom-up pass over the layout — children always sit one level
        below their parent, so processing nodes in increasing max-level
        order sees every child total before its parent needs it.
        """
        layout = self.net.layout
        assert layout is not None
        for i in self.net.ids:
            self.assigned.setdefault(i, 0.0)
        up = self.net.network.is_up
        self._subtree = {}
        for i in sorted(layout.max_level, key=layout.max_level.__getitem__):
            lvl = layout.max_level[i]
            total = self.headroom(i) if up(i) else 0.0
            if lvl > 0:
                for c in layout.children.get((i, lvl), ()):
                    total += self._subtree.get(c, 0.0)
            self._subtree[i] = total
        self._chains = {}
        for i in layout.max_level:
            chain = [i]
            cur = i
            while True:
                p = layout.parent.get(cur)
                if (p is None or p == cur or p not in layout.max_level
                        or layout.max_level[p] != layout.max_level[cur] + 1):
                    # A parent whose own level sits higher than cur+1 folds
                    # only its top-level cell: cur's total is invisible to
                    # it (matching the reference recursion).
                    break
                chain.append(p)
                cur = p
            self._chains[i] = tuple(chain)
        self._liveness_key = self._current_liveness_key()

    def _sync_cache(self) -> None:
        if self._current_liveness_key() != self._liveness_key:
            self.refresh()

    def _shift(self, node: int, old_headroom: float) -> None:
        """Propagate one node's headroom change up its ancestor chain."""
        delta = self.headroom(node) - old_headroom
        if delta == 0.0 or not self.net.network.is_up(node):
            return
        for a in self._chains.get(node, (node,)):
            if a in self._subtree:
                self._subtree[a] += delta

    def _assign(self, node: int, demand: float) -> None:
        old = self.headroom(node)
        self.assigned[node] += demand
        self._shift(node, old)

    # ------------------------------------------------------------ placement
    def place(self, task: Task, origin: Optional[int] = None) -> Placement:
        """Route *task* down the hierarchy to a live peer with headroom."""
        net = self.net
        layout = net.layout
        assert layout is not None
        self._sync_cache()
        hops = 0

        if origin is None:
            origin = next(i for i in net.ids if net.network.is_up(i))

        # Ascend to the root (placement decisions start from the widest view).
        chain = [origin] + layout.ancestors(origin)
        cur = chain[-1]
        hops += len(chain) - 1
        lvl = layout.max_level.get(cur, 0)

        while True:
            candidates: List[Tuple[float, int, int]] = []
            if net.network.is_up(cur) and self.headroom(cur) >= task.cpu_demand:
                candidates.append((self.headroom(cur), cur, -1))
            if lvl > 0:
                for c in layout.children.get((cur, lvl), ()):
                    h = self._subtree.get(c, 0.0)
                    if h >= task.cpu_demand:
                        candidates.append((h, c, lvl - 1))
            if not candidates:
                placement = Placement(task=task, node=None, hops=hops)
                self.placements.append(placement)
                return placement
            candidates.sort(reverse=True)
            best_h, best_id, best_lvl = candidates[0]
            if best_lvl == -1 or best_id == cur:
                # The current node itself wins: place here.
                self._assign(best_id, task.cpu_demand)
                placement = Placement(task=task, node=best_id, hops=hops)
                self.placements.append(placement)
                return placement
            hops += 1
            cur, lvl = best_id, best_lvl
            if lvl == 0:
                if net.network.is_up(cur) and self.headroom(cur) >= task.cpu_demand:
                    self._assign(cur, task.cpu_demand)
                    placement = Placement(task=task, node=cur, hops=hops)
                    self.placements.append(placement)
                    return placement
                placement = Placement(task=task, node=None, hops=hops)
                self.placements.append(placement)
                return placement

    def place_many(self, tasks: List[Task], origin: Optional[int] = None) -> List[Placement]:
        return [self.place(t, origin) for t in tasks]

    def release(self, task: Task, node: int) -> None:
        """Return a finished task's share to its node."""
        self._sync_cache()
        old = self.headroom(node)
        self.assigned[node] = max(0.0, self.assigned[node] - task.cpu_demand)
        self._shift(node, old)

    # -------------------------------------------------------------- metrics
    def utilisation(self) -> Dict[int, float]:
        """Assigned / effective capacity per live node."""
        out = {}
        for i in self.net.ids:
            if not self.net.network.is_up(i):
                continue
            eff = self.net.capacities[i].effective_cpu
            out[i] = self.assigned[i] / eff if eff > 0 else 0.0
        return out

    def imbalance(self) -> float:
        """Coefficient of variation of utilisation — 0 is perfectly even."""
        u = np.array(list(self.utilisation().values()))
        if u.size == 0 or float(np.mean(u)) == 0.0:
            return 0.0
        return float(np.std(u) / np.mean(u))
