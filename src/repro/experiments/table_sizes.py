"""§III.e — routing-table sizes and active-connection counts vs theory.

The paper's only analytical "table": for a network of ``n`` nodes with
``l0`` level-0 connections, hierarchy height ``h`` and per-node child/
neighbour counts ``ca``/``da``,

* a **level-0-only node** stores ``l0 + h`` entries and maintains
  ``l0 + 1`` active connections;
* a **level-i node** (``i > 0``) stores
  ``l0 + li + Li + ci + ca + da + h - i`` entries;
* **level-1 nodes** maintain ``l0 + ca + da`` connections, upper nodes
  ``l0 + ca + da + 2``.

This experiment measures both quantities on a built network and reports
them next to the paper's bounds — the "efficient use of the heterogeneity"
argument, made checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.config import TreePConfig
from repro.core.treep import TreePNetwork


@dataclass(frozen=True)
class SizeRow:
    """Measured vs theoretical bound for one node class."""

    node_class: str
    count: int
    entries_mean: float
    entries_max: int
    entries_bound: float
    connections_mean: float
    connections_bound: float

    def within_bounds(self, slack: float = 2.0) -> bool:
        """Means within `slack`x the paper's figure (the formulas are
        per-node with their own li/Li/ci terms; we compare class means to
        the bound evaluated at class-typical values)."""
        return (self.entries_mean <= slack * self.entries_bound
                and self.connections_mean <= slack * self.connections_bound)


def run(n: int = 1024, seed: int = 42, case: str = "case1") -> List[SizeRow]:
    """Measure table/connection sizes per node class on a fresh network."""
    cfg = TreePConfig.paper_case1() if case == "case1" else TreePConfig.paper_case2()
    net = TreePNetwork(config=cfg, seed=seed)
    layout = net.build(n)
    h = layout.height
    l0 = 2.0

    sizes = net.routing_table_sizes()
    conns = net.active_connection_counts()

    rows: List[SizeRow] = []
    by_class: Dict[str, List[int]] = {}
    for ident, node in net.nodes.items():
        if node.max_level == 0:
            key = "level-0 only"
        elif node.max_level == 1:
            key = "level 1"
        else:
            key = "level >= 2"
        by_class.setdefault(key, []).append(ident)

    for key in ("level-0 only", "level 1", "level >= 2"):
        members = by_class.get(key, [])
        if not members:
            continue
        ca = float(np.mean([
            sum(len(k) for k in net.nodes[i].children_by_level.values())
            for i in members
        ]))
        da = 2.0
        li, indirect = 2.0, 2.0
        if key == "level-0 only":
            entries_bound = l0 + h
            conn_bound = l0 + 1
        elif key == "level 1":
            # l0 + li + Li + ci + ca + da + h - i, with the replicated
            # terms at their class-typical values.
            entries_bound = l0 + li + indirect + ca + ca + da + h - 1
            conn_bound = l0 + ca + da
        else:
            lvl = float(np.mean([net.nodes[i].max_level for i in members]))
            entries_bound = l0 + li + indirect + ca + ca + da + h - lvl
            conn_bound = l0 + ca + da + 2
        rows.append(SizeRow(
            node_class=key,
            count=len(members),
            entries_mean=float(np.mean([sizes[i] for i in members])),
            entries_max=int(max(sizes[i] for i in members)),
            entries_bound=float(entries_bound),
            connections_mean=float(np.mean([conns[i] for i in members])),
            connections_bound=float(conn_bound),
        ))
    return rows

