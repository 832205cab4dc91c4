"""Ablation experiments for TreeP's design choices (§III, §VI).

Each function isolates one mechanism and returns comparable series/rows;
the ``ablation_*`` bench scenarios listed in ``docs/benchmarks.md``
render and check them:

* :func:`id_assignment` — random vs hash vs balanced IDs (§III + §VI):
  effect on tree balance and hop counts.
* :func:`demotion_policy` — strict demotion vs the §VI "keep stable nodes
  in the upper layers" variant, measured under churn-like failures.
* :func:`euclidean_fallback` — §III.f's TTL-triggered fallback on/off under
  heavy failure.
* :func:`repair_mechanisms` — which healing mechanism buys how much
  resilience (purge-only vs lateral relink vs full adoption).
* :func:`maintenance_interval` — protocol-mode keep-alive period vs
  control-message cost.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.config import TreePConfig
from repro.core.repair import FULL_POLICY, PAPER_POLICY, PURGE_ONLY_POLICY
from repro.core.treep import TreePNetwork
from repro.experiments.common import failure_steps
from repro.workloads.lookups import LookupWorkload


def id_assignment(
    n: int = 512, seed: int = 42, lookups: int = 200
) -> Dict[str, Dict[str, float]]:
    """Tree balance and lookup cost per ID-assignment strategy."""
    out: Dict[str, Dict[str, float]] = {}
    for strategy in ("random", "hash", "balanced"):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
        layout = net.build(n, strategy=strategy)  # type: ignore[arg-type]
        cell_sizes = [len(v) for v in layout.children.values()]
        workload = LookupWorkload(rng=net.rng.get("ablation"))
        results = net.run_lookup_batch(workload.pairs(net.ids, lookups), "G")
        found = [r for r in results if r.found]
        out[strategy] = {
            "height": float(layout.height),
            "avg_children": layout.average_children(),
            "cell_size_std": float(np.std(cell_sizes)) if cell_sizes else 0.0,
            "avg_hops": float(np.mean([r.hops for r in found])) if found else 0.0,
            "success_rate": len(found) / len(results),
        }
    return out


def demotion_policy(
    n: int = 256, seed: int = 42
) -> Dict[str, Dict[str, float]]:
    """Strict vs keep-upper demotion under protocol-mode child loss.

    Kills every level-1 node's children except one, runs the maintenance
    loop, and counts how many parents abdicated under each policy.
    """
    out: Dict[str, Dict[str, float]] = {}
    for policy in ("strict", "keep-upper"):
        cfg = TreePConfig.paper_case1(
            demotion_policy=policy, keepalive_interval=1.0, entry_ttl=3.0,
            demotion_base=2.0,
        )
        net = TreePNetwork(config=cfg, seed=seed)
        layout = net.build(n)
        # Starve parents: kill all but one child of every level-2 parent's
        # children (level-1 nodes keep their own children intact).
        victims: List[int] = []
        for (p, lvl), kids in layout.children.items():
            if lvl == 2 and len(kids) > 1:
                victims.extend(kids[1:])
        for v in victims:
            net.network.set_down(v)
        before = sum(1 for node in net.nodes.values() if node.max_level >= 2)
        net.start_maintenance()
        net.sim.run_for(30.0)
        net.stop_maintenance()
        after = sum(
            1
            for i, node in net.nodes.items()
            if net.network.is_up(i) and node.max_level >= 2
        )
        out[policy] = {
            "upper_nodes_before": float(before),
            "upper_nodes_after": float(after),
            "victims": float(len(victims)),
        }
    return out


def euclidean_fallback(
    n: int = 512, seed: int = 42, lookups: int = 200
) -> Dict[str, Dict[str, float]]:
    """§III.f TTL fallback on/off at a heavy-failure operating point."""
    out: Dict[str, Dict[str, float]] = {}
    for enabled in (True, False):
        cfg = TreePConfig.paper_case1(euclidean_fallback=enabled)
        net = TreePNetwork(config=cfg, seed=seed)
        net.build(n)
        surviving: Tuple[int, ...] = ()
        for step in failure_steps(net):
            surviving = step.surviving
            if step.cumulative_failed_fraction >= 0.5:
                break
        workload = LookupWorkload(rng=net.rng.get("ablation"))
        results = net.run_lookup_batch(workload.pairs(surviving, lookups), "G")
        found = [r for r in results if r.found]
        out["fallback-on" if enabled else "fallback-off"] = {
            "success_rate": len(found) / len(results),
            "avg_hops": float(np.mean([r.hops for r in found])) if found else 0.0,
        }
    return out


def repair_mechanisms(
    n: int = 512, seed: int = 42, lookups: int = 150
) -> Dict[str, Dict[str, float]]:
    """How much resilience each healing mechanism buys (at 30% dead)."""
    policies = {
        "purge-only": PURGE_ONLY_POLICY,
        "lateral (paper)": PAPER_POLICY,
        "full adoption": FULL_POLICY,
    }
    out: Dict[str, Dict[str, float]] = {}
    for name, policy in policies.items():
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
        net.build(n)
        surviving = ()
        for step in failure_steps(net, policy):
            surviving = step.surviving
            if step.cumulative_failed_fraction >= 0.3:
                break
        workload = LookupWorkload(rng=net.rng.get("ablation"))
        results = net.run_lookup_batch(workload.pairs(surviving, lookups), "G")
        found = [r for r in results if r.found]
        out[name] = {
            "success_rate": len(found) / len(results),
            "avg_hops": float(np.mean([r.hops for r in found])) if found else 0.0,
        }
    return out


def maintenance_interval(
    n: int = 128, seed: int = 42, horizon: float = 60.0
) -> Dict[float, Dict[str, float]]:
    """Protocol-mode control-traffic cost per keep-alive interval."""
    out: Dict[float, Dict[str, float]] = {}
    for interval in (2.0, 5.0, 10.0, 20.0):
        cfg = TreePConfig.paper_case1(
            keepalive_interval=interval, entry_ttl=interval * 4
        )
        net = TreePNetwork(config=cfg, seed=seed)
        net.build(n)
        net.network.reset_stats()
        net.start_maintenance()
        net.sim.run_for(horizon)
        net.stop_maintenance()
        stats = net.network.stats
        out[interval] = {
            "messages_per_node_per_s": stats.sent / n / horizon,
            "bytes_per_node_per_s": stats.bytes_sent / n / horizon,
        }
    return out
