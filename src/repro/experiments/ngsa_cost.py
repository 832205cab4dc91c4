"""§IV.a's bandwidth verdict on NGSA, measured.

"The NGSA algorithm is not performing much better than the NG or the Greedy
algorithm […] The gain obtained by the NGSA algorithm compared to its cost
in terms of bandwidth makes it less attractive to be used with this
topology."

NGSA carries alternate-path candidates inside every request ("at the
expense of adding data to the request"), so its cost shows up as bytes on
the wire, not as extra messages.  This experiment runs the same lookup
batch under each algorithm at a configurable failure level and reports
success rate, messages and bytes per lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.config import TreePConfig
from repro.core.treep import TreePNetwork
from repro.experiments.common import ALGORITHMS, failure_steps
from repro.workloads.lookups import LookupWorkload


@dataclass(frozen=True)
class AlgoCost:
    algorithm: str
    success_rate: float
    avg_hops: float
    messages_per_lookup: float
    bytes_per_lookup: float


def run(
    n: int = 1024,
    seed: int = 42,
    lookups: int = 300,
    dead_fraction: float = 0.30,
) -> Dict[str, AlgoCost]:
    """Measure per-algorithm lookup cost at *dead_fraction* failed nodes."""
    if not 0.0 <= dead_fraction < 0.95:
        raise ValueError(f"dead_fraction must be in [0, 0.95), got {dead_fraction}")
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n)
    surviving = list(net.ids)
    if dead_fraction > 0:
        for step in failure_steps(net):
            surviving = list(step.surviving)
            if step.cumulative_failed_fraction >= dead_fraction:
                break

    workload = LookupWorkload(rng=net.rng.get("workload"))
    pairs = workload.pairs(surviving, lookups)

    out: Dict[str, AlgoCost] = {}
    for algo in ALGORITHMS:
        before = net.network.stats
        sent0, bytes0 = before.sent, before.bytes_sent
        results = net.run_lookup_batch(pairs, algo)
        stats = net.network.stats
        found = [r for r in results if r.found]
        out[algo] = AlgoCost(
            algorithm=algo,
            success_rate=len(found) / len(results),
            avg_hops=float(np.mean([r.hops for r in found])) if found else 0.0,
            messages_per_lookup=(stats.sent - sent0) / len(results),
            bytes_per_lookup=(stats.bytes_sent - bytes0) / len(results),
        )
    return out

