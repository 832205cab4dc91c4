"""The three workloads: inputs from a seed, then setup, run and teardown.

Every input (lookup pairs, failure order, keys, values, job specs) is drawn
from the seed into numpy arrays by :func:`make_inputs` before any timer
starts.  Inputs are positions into the node list; :meth:`Workload.bind`
turns them into node ids once the overlay exists, outside every timed
phase.  The program is driven only through its public API.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from repro.cluster import Cluster
from repro.compute.job import JobSpec
from repro.core import repair
from repro.core.config import TreePConfig
from repro.core.treep import TreePNetwork
from repro.storage import QuorumConfig
from repro.workloads.jobs import JobWorkload

#: Sizes per workload.  ``smoke`` is the benchmark's own test size.
SIZES = {
    "lookup": {"full": {"n": 10_000, "lookups": 6_000},
               "smoke": {"n": 400, "lookups": 200}},
    "churn": {"full": {"n": 5_000, "lookups": 600, "dead_fraction": 0.20, "bursts": 5},
              "smoke": {"n": 1_100, "lookups": 60, "dead_fraction": 0.20, "bursts": 5}},
    "kv_jobs": {"full": {"n": 2_000, "ops": 1_000, "put_share": 0.30, "jobs": 20,
                         "job_interval": 18.0},
                "smoke": {"n": 200, "ops": 120, "put_share": 0.30, "jobs": 6,
                          "job_interval": 8.0}},
}

#: Success floors, the ones the repository's own ``scale_lookup`` and
#: ``scale_churn`` scenarios check.  Greedy routing is not loop-free: on a
#: steady-state overlay a few greedy lookups in a thousand end NOT_FOUND.
#: The client then retries once with NGSA, so every lookup resolves; the
#: floor applies to the greedy attempts.
LOOKUP_FLOOR = 0.98
CHURN_FLOOR = 0.70

#: The client's first attempt, and its one retry after a NOT_FOUND.
FIRST_ALGO, RETRY_ALGO = "G", "NGSA"

#: Repair after each crash burst of ``churn``.  With 30% of the nodes
#: crashed, the paper's lateral-only policy leaves a seed-dependent handful
#: of lookups unresolved even after the retry (5 to 18 of 3,000 on seeds
#: 1-3), and full repair still one on seed 7.  With parent re-adoption and
#: two gossip rounds, and 20% crashed, every lookup resolved on seeds 1-30,
#: so ``churn`` is a workload on which no operation fails.
CHURN_POLICY = repair.FULL_POLICY

#: Virtual seconds the job phase of ``kv_jobs`` may take after the client loop.
JOB_TIMEOUT = 3_000.0


def _pairs(rng: np.random.Generator, population: int, count: int) -> np.ndarray:
    """``count`` (origin, target) positions in ``range(population)``, origin
    != target, uniform over ordered pairs."""
    origin = rng.integers(0, population, size=count)
    target = rng.integers(0, population - 1, size=count)
    target = target + (target >= origin)
    return np.stack([origin, target], axis=1)


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


@dataclass
class Outcome:
    """What one run of a workload reports besides host times."""

    attempted: int
    failed: int
    ops: int
    #: Deterministic results: identical for one seed on every run, traced or not.
    det: Dict[str, object]
    #: Workload-specific end-to-end metrics (``BENCHMARK.json`` lists only
    #: those every workload reports): name -> (value, unit).
    extra: Dict[str, tuple]
    #: (name, passed, detail).
    checks: List[tuple]


class Workload:
    name = ""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.p = SIZES[self.name][size]
        self.inputs = self.make_inputs(np.random.default_rng([seed, 7]))

    def make_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def bind(self) -> None:
        """Map input positions onto node ids (untimed)."""

    def run(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release the deployment (timed as part of ``total_s``)."""

    @property
    def net(self) -> TreePNetwork:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError


class _LookupBatches(Workload):
    """Shared lookup issue/record path of ``lookup`` and ``churn``."""

    def setup(self) -> None:
        self._net = TreePNetwork(config=TreePConfig.paper_case1(), seed=self.seed)
        self._net.build(self.p["n"])
        self.pending: List[tuple] = []
        self.done_at: Dict[int, float] = {}
        self.greedy_missed = 0

    @property
    def net(self) -> TreePNetwork:
        return self._net

    def issue(self, pairs: List[tuple]) -> None:
        """Issue one batch of greedy lookups at the current virtual time and
        drain it; then retry every NOT_FOUND once with NGSA and drain."""
        nodes, sim, done_at = self._net.nodes, self._net.sim, self.done_at

        def on_done(res) -> None:
            done_at[res.request_id] = sim.now

        first = [nodes[origin].issue_lookup(target, FIRST_ALGO, on_done=on_done)
                 for origin, target in pairs]
        sim.drain()
        missed = [i for i, p in enumerate(first) if not p.result.found]
        retried = {i: nodes[pairs[i][0]].issue_lookup(pairs[i][1], RETRY_ALGO,
                                                      on_done=on_done)
                   for i in missed}
        if retried:
            sim.drain()
        self.greedy_missed += len(missed)
        self.pending.extend((p, retried.get(i)) for i, p in enumerate(first))

    def lookup_outcome(self) -> Outcome:
        # Each operation: its greedy attempt and, after a NOT_FOUND, the retry.
        final = [retry or p for p, retry in self.pending]
        results = [p.result for p in final]
        found = [r for r in results if r.found]
        sim_lat = [self.done_at[last.request_id] - p.issued_at
                   for (p, _), last in zip(self.pending, final)]
        hops_mean = float(np.mean([r.hops for r in found])) if found else 0.0
        n = len(results)
        failed = n - len(found)
        det = {
            "lookups": n,
            "found": len(found),
            "greedy_found": n - self.greedy_missed,
            "timed_out": sum(p.result.timed_out for p, retry in self.pending)
            + sum(retry.result.timed_out for p, retry in self.pending if retry),
            "hops_sum": sum(r.hops for r in found),
            "digest": _digest((r.origin, r.target, r.algo.value, r.found, r.hops,
                               r.timed_out, round(t, 9)) for r, t in zip(results, sim_lat)),
        }
        extra = {
            "op_fail_ratio": (failed / n, "fraction"),
            "greedy_success": (det["greedy_found"] / n, "fraction"),
            "lookup_hops_mean": (hops_mean, "hops"),
            "lookup_sim_p50_s": (_quantile(sim_lat, 0.50), "sim_s"),
            "lookup_sim_p99_s": (_quantile(sim_lat, 0.99), "sim_s"),
        }
        return Outcome(attempted=n, failed=failed, ops=n, det=det, extra=extra, checks=[])

    def lookup_checks(self, out: Outcome, floor: float) -> List[tuple]:
        greedy = out.extra["greedy_success"][0]
        return [
            ("every_lookup_found", out.failed == 0,
             f"{out.det['found']}/{out.attempted} found after one {RETRY_ALGO} retry"),
            ("greedy_success_floor", greedy >= floor,
             f"greedy {out.det['greedy_found']}/{out.attempted} found (floor {floor})"),
        ]


class LookupWorkload(_LookupBatches):
    """Steady-state greedy lookups, one batch at virtual t=0."""

    name = "lookup"

    def make_inputs(self, rng):
        return {"pairs": _pairs(rng, self.p["n"], self.p["lookups"])}

    def bind(self) -> None:
        ids = np.asarray(self._net.ids)
        self.batch = [tuple(row) for row in ids[self.inputs["pairs"]].tolist()]

    def run(self) -> None:
        self.issue(self.batch)

    def outcome(self) -> Outcome:
        out = self.lookup_outcome()
        n = self.p["n"]
        hops = out.extra["lookup_hops_mean"][0]
        out.checks = self.lookup_checks(out, LOOKUP_FLOOR) + [
            ("hops_within_2log2n", hops <= 2 * math.log2(n),
             f"mean hops {hops:.3f} <= {2 * math.log2(n):.3f}"),
        ]
        return out


class ChurnWorkload(_LookupBatches):
    """Crash bursts, full repair, then lookups among live nodes."""

    name = "churn"

    def make_inputs(self, rng):
        n, bursts = self.p["n"], self.p["bursts"]
        total = int(self.p["dead_fraction"] * n)
        cuts = [round(total * b / bursts) for b in range(bursts + 1)]
        order = rng.permutation(n)
        # Burst b kills order[cuts[b]:cuts[b+1]]; its lookups run among the
        # nodes not yet killed, order[cuts[b+1]:].
        pairs = [_pairs(rng, n - cuts[b + 1], self.p["lookups"]) for b in range(bursts)]
        return {"order": order, "cuts": np.asarray(cuts), "pairs": pairs}

    def bind(self) -> None:
        order = np.asarray(self._net.ids)[self.inputs["order"]]
        cuts = self.inputs["cuts"]
        self.bursts = []
        for b, pairs in enumerate(self.inputs["pairs"]):
            live = order[cuts[b + 1]:]
            self.bursts.append((order[cuts[b]:cuts[b + 1]].tolist(),
                                [tuple(row) for row in live[pairs].tolist()]))

    def run(self) -> None:
        net = self._net
        for killed, pairs in self.bursts:
            net.fail_nodes(killed)
            repair.apply_failure_step(net, killed, CHURN_POLICY)
            self.issue(pairs)

    def outcome(self) -> Outcome:
        out = self.lookup_outcome()
        out.checks = self.lookup_checks(out, CHURN_FLOOR)
        return out


class KvJobsWorkload(Workload):
    """One closed-loop synchronous storage client while grid jobs arrive."""

    name = "kv_jobs"

    def make_inputs(self, rng):
        ops = self.p["ops"]
        is_put = rng.random(ops) < self.p["put_share"]
        is_put[0] = True
        puts_before = np.cumsum(is_put) - is_put  # keys acked before op k
        get_key = np.floor(rng.random(ops) * np.maximum(puts_before, 1)).astype(np.int64)
        key_of = np.where(is_put, puts_before, get_key)
        values = rng.integers(0, 2**31, size=ops)
        # Demands, work sizes and constraints from the job generator; one
        # arrival every job_interval virtual seconds, so every seed keeps
        # jobs running for about as long (the steal traffic they cause is
        # most of the run phase's events).
        interval = self.p["job_interval"]
        specs = [replace(spec, submit_at=(i + 1) * interval) for i, spec in enumerate(
            JobWorkload(rng=rng, work_mean=15.0, constrained_fraction=0.25)
            .jobs(self.p["jobs"]))]
        return {"is_put": is_put, "key_of": key_of, "values": values, "jobs": specs}

    def setup(self) -> None:
        self.cluster = (Cluster(config=TreePConfig.paper_case1(), seed=self.seed)
                        .build(self.p["n"])
                        .with_storage(QuorumConfig(n=3, w=2, r=2))
                        .with_compute()
                        .with_observability())
        self.hub = self.cluster.obs
        self.grid = self.cluster.compute

    @property
    def net(self) -> TreePNetwork:
        return self.cluster.net

    def bind(self) -> None:
        inp = self.inputs
        self.ops = [(bool(p), f"kv/{k:06d}", int(v)) for p, k, v in
                    zip(inp["is_put"], inp["key_of"].tolist(), inp["values"].tolist())]
        self.specs: List[JobSpec] = inp["jobs"]

    def run(self) -> None:
        store, clock = self.cluster.storage, time.perf_counter
        self.grid.schedule_submissions(self.specs)
        acked: Dict[str, int] = {}
        host, rows = [], []
        bad_puts = bad_gets = 0
        for is_put, key, value in self.ops:
            t0 = clock()
            if is_put:
                res = store.put(key, value)
                host.append(clock() - t0)
                if res.ok:
                    acked[key] = value
                else:
                    bad_puts += 1
                rows.append(("put", key, res.ok, res.version, res.hops))
            else:
                res = store.get(key)
                host.append(clock() - t0)
                if not (res.found and res.value == acked.get(key)):
                    bad_gets += 1
                rows.append(("get", key, res.found, res.value, res.version, res.hops))
        self.all_done = self.grid.run_until_done(timeout=JOB_TIMEOUT)
        self.host, self.rows = host, rows
        self.bad_puts, self.bad_gets = bad_puts, bad_gets

    def teardown(self) -> None:
        self.cluster.shutdown()

    def outcome(self) -> Outcome:
        stats = self.grid.stats()
        jobs = [(r.job_id, r.ok, r.worker, r.attempts, round(r.completed_at, 9))
                for _, r in sorted(self.grid.results.items())]
        unfinished = stats.submitted - stats.completed
        puts = sum(1 for op in self.ops if op[0])
        gets = len(self.ops) - puts
        attempted = len(self.ops) + stats.submitted
        failed = self.bad_puts + self.bad_gets + unfinished
        det = {
            "puts": puts,
            "puts_acked": puts - self.bad_puts,
            "gets": gets,
            "gets_found": gets - self.bad_gets,
            "jobs_submitted": stats.submitted,
            "jobs_completed": stats.completed,
            "reexecutions": stats.reexecutions,
            "placement_hops_total": stats.placement_hops,
            "obs_spans": len(self.hub.spans),
            "obs_events": len(self.hub.events),
            "digest": _digest(self.rows + jobs),
        }
        host_ms = np.asarray(self.host) * 1e3
        beyond_p99 = int(len(host_ms) * 0.01)
        extra = {
            "op_host_p50_ms": (_quantile(host_ms, 0.50), "ms"),
            # Reported only when at least ten samples lie beyond it.
            "op_host_p99_ms": (_quantile(host_ms, 0.99) if beyond_p99 >= 10 else None, "ms"),
            "op_host_samples": (len(host_ms), "count"),
            "op_fail_ratio": (failed / attempted, "fraction"),
            "job_makespan_sim_s": (stats.makespan, "sim_s"),
        }
        checks = [
            ("every_put_acked", self.bad_puts == 0, f"{puts - self.bad_puts}/{puts} acked"),
            ("every_get_returns_last_acked_value", self.bad_gets == 0,
             f"{gets - self.bad_gets}/{gets} correct"),
            ("every_job_completes", bool(self.all_done) and unfinished == 0,
             f"{stats.completed}/{stats.submitted} completed"),
        ]
        return Outcome(attempted=attempted, failed=failed, ops=len(self.ops) + stats.completed,
                       det=det, extra=extra, checks=checks)


WORKLOADS = {w.name: w for w in (LookupWorkload, ChurnWorkload, KvJobsWorkload)}
