"""Process-parallel experiment campaigns: scenario × params × seeds.

A **campaign** turns one scenario into a distribution: a declarative
spec (TOML or JSON, the same loading discipline as :mod:`repro.obs.slo`)
names a registered scenario, a seed list, and a parameter grid; the
runner executes exactly one repetition per (param point, seed) — fanned
across ``multiprocessing`` *spawn* workers — and aggregates each metric
across seeds into mean / sample stddev / confidence interval
(Student-t by default, percentile bootstrap on request; the math lives
in :mod:`repro.metrics.stats`).

The spec::

    [campaign]
    name = "lookup_sweep"
    scenario = "scale_lookup"
    seeds = [101, 202, 303]
    confidence = 0.95        # optional (default 0.95)
    ci = "t"                 # optional: "t" | "bootstrap"

    [campaign.params]        # list => swept axis, scalar => fixed override
    lookups = [150, 300]

Every repetition runs through the single :func:`repro.bench.runner.run_scenario`
seam — the same entry point the CLI ``run`` subcommand and the pytest
glue use — so a campaign repetition at seed *s* is **bit-identical** on
its deterministic fields to ``python -m repro.bench run <scenario>
--seed s`` in one process (``tests/test_campaign_determinism.py`` pins
this across a spawned worker).  The aggregate envelope
(:data:`CAMPAIGN_SCHEMA`) embeds the full per-repetition
:class:`~repro.bench.result.BenchResult` dicts, and is written to
``benchmarks/out/campaign_<name>.json`` (``.smoke.json`` for smoke
runs), where ``python -m repro.bench compare`` recognises it and gates
on **CI overlap** instead of point deltas.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import sys
import time
import tomllib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.result import validate_result_dict
from repro.bench.runner import run_scenario
from repro.bench.scenario import registry
from repro.metrics.stats import CI_METHODS, SampleSummary, summarize_samples

#: Aggregate envelope schema identifier; bump on breaking field changes.
CAMPAIGN_SCHEMA = "repro.bench/campaign-1"

#: Fields every campaign envelope must carry.
CAMPAIGN_REQUIRED_FIELDS = (
    "schema", "campaign", "scenario", "group", "git_sha", "seeds", "smoke",
    "workers", "confidence", "ci_method", "wall_time_s", "metrics_aggregated",
    "unix_time", "points",
)

#: Envelope fields that record *when/where* a run happened, not *what* it
#: computed — stripped by :func:`deterministic_view`.
WALLCLOCK_ENVELOPE_FIELDS = ("wall_time_s", "unix_time", "git_sha")

#: Substrings marking a metric as wall-clock-derived (events/sec, build
#: seconds, …) — such metrics legitimately move between identical-seed
#: runs and are excluded from determinism comparisons (the same taxonomy
#: ``tests/test_sim_scale.py`` uses for its pinned smoke metrics).
WALLCLOCK_METRIC_MARKERS = ("_per_second", "_seconds", "per_sec", "wall")


def is_wallclock_metric(name: str) -> bool:
    """True when metric *name* measures wall-clock speed, not simulation
    semantics (``events_per_second_mid_n``, ``build_seconds``, …)."""
    return any(marker in name for marker in WALLCLOCK_METRIC_MARKERS)


def deterministic_view(data: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of a result envelope with every wall-clock field removed.

    Works on both envelope kinds — a :class:`~repro.bench.result.BenchResult`
    dict (``repro.bench/1``) and a campaign aggregate
    (:data:`CAMPAIGN_SCHEMA`), recursing into the aggregate's embedded
    repetitions.  Two runs of the same (scenario, seed, params) must
    produce equal views; anything that differs is a determinism bug.
    """
    out = {k: v for k, v in data.items()
           if k not in WALLCLOCK_ENVELOPE_FIELDS}
    if out.get("schema") == CAMPAIGN_SCHEMA:
        points = []
        for point in out.get("points", []):
            p = dict(point)
            p["metrics"] = {k: v for k, v in p.get("metrics", {}).items()
                            if not is_wallclock_metric(k)}
            p["repetitions"] = [deterministic_view(rep)
                                for rep in p.get("repetitions", [])]
            points.append(p)
        out["points"] = points
    else:
        out["metrics"] = {k: v for k, v in out.get("metrics", {}).items()
                          if not is_wallclock_metric(k)}
    return out


# ------------------------------------------------------------------ the spec
@dataclass(frozen=True)
class CampaignSpec:
    """A parsed, validated campaign declaration."""

    name: str
    scenario: str
    seeds: Tuple[int, ...]
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()  # sorted by axis name
    fixed: Mapping[str, Any] = field(default_factory=dict)
    confidence: float = 0.95
    ci_method: str = "t"
    resamples: int = 2000
    source: str = "<dict>"

    def points(self) -> List[Dict[str, Any]]:
        """Every param point of the grid, in deterministic (sorted-axis,
        row-major) order; each is an overrides dict for ``run_scenario``."""
        if not self.axes:
            return [dict(self.fixed)]
        names = [a for a, _ in self.axes]
        out = []
        for combo in itertools.product(*(vals for _, vals in self.axes)):
            point = dict(self.fixed)
            point.update(zip(names, combo))
            out.append(point)
        return out

    def __len__(self) -> int:
        """Total repetitions: |grid| × |seeds|."""
        return len(self.points()) * len(self.seeds)


# ---------------------------------------------------------------- spec loading
def load_campaign(path: str) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        data = json.loads(text)
    else:
        data = tomllib.loads(text)
    return parse_campaign(data, source=path)


def parse_campaign(data: Mapping[str, Any],
                   source: str = "<dict>") -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a parsed ``{"campaign": …}``
    mapping; every malformation raises ``ValueError`` naming *source*."""
    raw = data.get("campaign")
    if not isinstance(raw, Mapping) or not raw:
        raise ValueError(f"{source}: spec needs a non-empty [campaign] table")
    known = {"name", "scenario", "seeds", "confidence", "ci", "resamples",
             "params"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(
            f"{source}: unknown [campaign] keys {unknown} "
            f"(known: {sorted(known)})")
    name = raw.get("name")
    if not isinstance(name, str) or not name or not all(
            c.isalnum() or c in "_-" for c in name):
        raise ValueError(
            f"{source}: campaign name must be a [A-Za-z0-9_-]+ string, "
            f"got {name!r}")
    scenario = raw.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise ValueError(f"{source}: campaign needs a scenario name")
    seeds = raw.get("seeds")
    if (not isinstance(seeds, Sequence) or isinstance(seeds, (str, bytes))
            or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       for s in seeds)):
        raise ValueError(
            f"{source}: seeds must be a non-empty list of ints, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"{source}: seeds must be distinct, got {list(seeds)}")
    confidence = raw.get("confidence", 0.95)
    if (not isinstance(confidence, (int, float)) or isinstance(confidence, bool)
            or not 0.0 < confidence < 1.0):
        raise ValueError(
            f"{source}: confidence must be in (0, 1), got {confidence!r}")
    ci_method = raw.get("ci", "t")
    if ci_method not in CI_METHODS:
        raise ValueError(
            f"{source}: ci must be one of {CI_METHODS}, got {ci_method!r}")
    resamples = raw.get("resamples", 2000)
    if not isinstance(resamples, int) or isinstance(resamples, bool) \
            or resamples < 1:
        raise ValueError(
            f"{source}: resamples must be an int >= 1, got {resamples!r}")
    params = raw.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(f"{source}: [campaign.params] must be a table")
    axes: List[Tuple[str, Tuple[Any, ...]]] = []
    fixed: Dict[str, Any] = {}
    for key in sorted(params):
        value = params[key]
        if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
            if not value:
                raise ValueError(
                    f"{source}: [campaign.params] {key} sweeps no values")
            axes.append((key, tuple(value)))
        else:
            fixed[key] = value
    return CampaignSpec(
        name=name, scenario=scenario, seeds=tuple(seeds), axes=tuple(axes),
        fixed=fixed, confidence=float(confidence), ci_method=ci_method,
        resamples=resamples, source=source)


# ----------------------------------------------------------------- execution
def _run_repetition(payload: Tuple[str, int, bool, Dict[str, Any]],
                    ) -> Dict[str, Any]:
    """One (scenario, seed, smoke, overrides) repetition → BenchResult dict.

    Module-top-level so ``multiprocessing`` *spawn* workers can import it
    by reference; the scenario registry is (re-)populated inside, because
    a spawned child starts from a fresh interpreter.
    """
    name, seed, smoke, overrides = payload
    import repro.bench.scenarios  # noqa: F401  (populates the registry)

    result = run_scenario(name, seed=seed, smoke=smoke,
                          overrides=overrides or None)
    return result.to_dict()


@dataclass
class CampaignResult:
    """One campaign execution: per-point aggregates + embedded repetitions."""

    campaign: str
    scenario: str
    group: str
    git_sha: str
    seeds: List[int]
    smoke: bool
    workers: int
    confidence: float
    ci_method: str
    wall_time_s: float
    metrics_aggregated: int
    points: List[Dict[str, Any]]
    unix_time: float = 0.0
    schema: str = CAMPAIGN_SCHEMA

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "campaign": self.campaign,
            "scenario": self.scenario,
            "group": self.group,
            "git_sha": self.git_sha,
            "seeds": list(self.seeds),
            "smoke": self.smoke,
            "workers": self.workers,
            "confidence": self.confidence,
            "ci_method": self.ci_method,
            "wall_time_s": self.wall_time_s,
            "metrics_aggregated": self.metrics_aggregated,
            "unix_time": self.unix_time,
            "points": self.points,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignResult":
        validate_campaign_dict(data)
        kwargs = {k: data[k] for k in CAMPAIGN_REQUIRED_FIELDS}
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, out_dir: str) -> str:
        """Write under *out_dir* as ``campaign_<name>.json``
        (``.smoke.json`` for smoke runs — same never-clobber discipline
        as :meth:`repro.bench.result.BenchResult.write`)."""
        os.makedirs(out_dir, exist_ok=True)
        suffix = ".smoke.json" if self.smoke else ".json"
        path = os.path.join(out_dir, f"campaign_{self.campaign}{suffix}")
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def read(cls, path: str) -> "CampaignResult":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -------------------------------------------------------------- queries
    def failed_checks(self) -> List[Dict[str, Any]]:
        """Aggregated checks that failed in at least one repetition."""
        return [c for point in self.points for c in point["checks"]
                if not c.get("passed")]

    def point_summaries(self, index: int) -> Dict[str, SampleSummary]:
        return {name: SampleSummary.from_dict(entry)
                for name, entry in self.points[index]["metrics"].items()}


def validate_campaign_dict(data: Mapping[str, Any]) -> None:
    """Schema-validate a campaign envelope; ``ValueError`` on violation."""
    missing = [k for k in CAMPAIGN_REQUIRED_FIELDS if k not in data]
    if missing:
        raise ValueError(f"campaign envelope missing fields: {missing}")
    if data["schema"] != CAMPAIGN_SCHEMA:
        raise ValueError(
            f"unsupported campaign schema {data['schema']!r} "
            f"(expected {CAMPAIGN_SCHEMA!r})")
    if not isinstance(data["seeds"], list) or not data["seeds"]:
        raise ValueError("campaign seeds must be a non-empty list")
    if not isinstance(data["points"], list) or not data["points"]:
        raise ValueError("campaign points must be a non-empty list")
    for i, point in enumerate(data["points"]):
        if not isinstance(point, Mapping):
            raise ValueError(f"point {i} is not an object")
        for key in ("params", "metrics", "checks", "repetitions"):
            if key not in point:
                raise ValueError(f"point {i} missing {key!r}")
        if not isinstance(point["metrics"], Mapping) or not point["metrics"]:
            raise ValueError(f"point {i} metrics must be a non-empty object")
        for name, entry in point["metrics"].items():
            if not isinstance(entry, Mapping):
                raise ValueError(f"point {i} metric {name!r} is not an object")
            needed = {"n", "mean", "std", "ci_lo", "ci_hi"}
            if not needed <= set(entry):
                raise ValueError(
                    f"point {i} metric {name!r} missing "
                    f"{sorted(needed - set(entry))}")
        reps = point["repetitions"]
        if not isinstance(reps, list) or len(reps) != len(data["seeds"]):
            raise ValueError(
                f"point {i} must embed exactly one repetition per seed "
                f"({len(data['seeds'])}), got "
                f"{len(reps) if isinstance(reps, list) else type(reps)}")
        for rep in reps:
            validate_result_dict(rep)


def _aggregate_point(reps: List[Dict[str, Any]], seeds: Sequence[int],
                     spec: CampaignSpec) -> Dict[str, Any]:
    """Fold one param point's per-seed repetitions into the aggregate."""
    metric_names = set(reps[0]["metrics"])
    for rep in reps[1:]:
        if set(rep["metrics"]) != metric_names:
            raise ValueError(
                f"campaign {spec.name!r}: repetitions disagree on metric "
                f"names — {sorted(metric_names ^ set(rep['metrics']))}")
    metrics = {}
    for name in sorted(metric_names):
        samples = [rep["metrics"][name] for rep in reps]
        metrics[name] = summarize_samples(
            samples, confidence=spec.confidence, method=spec.ci_method,
            resamples=spec.resamples).to_dict()
    checks = []
    for j, check in enumerate(reps[0]["checks"]):
        failed_seeds = [seed for seed, rep in zip(seeds, reps)
                        if not rep["checks"][j].get("passed")]
        checks.append({"name": check["name"],
                       "passed": not failed_seeds,
                       "failed_seeds": failed_seeds})
    return {
        "params": dict(reps[0]["params"]),
        "metrics": metrics,
        "checks": checks,
        "repetitions": reps,
    }


def run_campaign(spec: CampaignSpec, *, smoke: bool = False,
                 workers: int = 1,
                 progress: Optional[Any] = None) -> CampaignResult:
    """Execute *spec*: one repetition per (param point, seed).

    ``workers <= 1`` runs serially in-process; ``workers > 1`` fans the
    repetitions across a *spawn* ``multiprocessing`` pool (spawn, not
    fork, so every worker owns a fresh interpreter with no inherited RNG
    or import-order state — the property the determinism test pins).
    Either way each repetition goes through the same
    :func:`_run_repetition` seam and results are assembled in submission
    order, so the envelope is independent of worker scheduling.

    *progress* is an optional callable ``(done, total, rep_dict)`` for
    CLI feedback.
    """
    scenario = registry.get(spec.scenario)  # fail fast on unknown names
    points = spec.points()
    for point in points:  # validate the whole grid before burning time
        scenario.effective_params(smoke=smoke, overrides=point or None)
    payloads = [(spec.scenario, seed, smoke, point)
                for point in points for seed in spec.seeds]
    t0 = time.perf_counter()
    reps: List[Dict[str, Any]] = []
    if workers <= 1:
        for i, payload in enumerate(payloads):
            rep = _run_repetition(payload)
            reps.append(rep)
            if progress is not None:
                progress(i + 1, len(payloads), rep)
    else:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=min(workers, len(payloads))) as pool:
            for i, rep in enumerate(
                    pool.imap(_run_repetition, payloads, chunksize=1)):
                reps.append(rep)
                if progress is not None:
                    progress(i + 1, len(payloads), rep)
    wall = time.perf_counter() - t0
    n_seeds = len(spec.seeds)
    out_points = [
        _aggregate_point(reps[i * n_seeds:(i + 1) * n_seeds], spec.seeds, spec)
        for i in range(len(points))
    ]
    return CampaignResult(
        campaign=spec.name,
        scenario=spec.scenario,
        group=scenario.group,
        git_sha=reps[0]["git_sha"],
        seeds=list(spec.seeds),
        smoke=smoke,
        workers=workers,
        confidence=spec.confidence,
        ci_method=spec.ci_method,
        wall_time_s=round(wall, 6),
        metrics_aggregated=sum(len(p["metrics"]) for p in out_points),
        unix_time=time.time(),
        points=out_points,
    )


def load_campaigns(path: str) -> Dict[str, CampaignResult]:
    """Load one campaign file or every ``campaign_*.json`` in a directory,
    keyed by campaign name (a full-params point outranks its smoke twin,
    mirroring :func:`repro.bench.result.load_results`)."""
    if os.path.isdir(path):
        out: Dict[str, CampaignResult] = {}
        for name in sorted(os.listdir(path)):
            if name.startswith("campaign_") and name.endswith(".json"):
                full = os.path.join(path, name)
                try:
                    result = CampaignResult.read(full)
                except (ValueError, KeyError, json.JSONDecodeError) as exc:
                    print(f"load_campaigns: skipping invalid {full}: {exc}",
                          file=sys.stderr)
                    continue
                existing = out.get(result.campaign)
                if existing is not None and existing.smoke != result.smoke:
                    if result.smoke:
                        continue
                out[result.campaign] = result
        if not out:
            raise ValueError(f"no valid campaign_*.json results under {path!r}")
        return out
    result = CampaignResult.read(path)
    return {result.campaign: result}


# ---------------------------------------------------------------- comparison
@dataclass(frozen=True)
class CampaignDelta:
    """One aggregated metric's movement between two campaigns, at one
    param point, judged by CI overlap rather than a point threshold."""

    campaign: str
    metric: str
    direction: str
    params: Dict[str, Any]
    old: SampleSummary
    new: SampleSummary
    status: str  # "ok" | "regression" | "improvement" | "neutral"

    def describe(self) -> str:
        point = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (f"{self.campaign}[{point}].{self.metric}: "
                f"{_ci_str(self.old)} -> {_ci_str(self.new)} "
                f"({self.direction} is better)")


def _ci_str(s: SampleSummary) -> str:
    if s.ci_lo is None:
        return f"{s.mean:.6g} (n={s.n}, no CI)"
    return f"{s.mean:.6g} [{s.ci_lo:.6g}, {s.ci_hi:.6g}]"


@dataclass
class CampaignComparison:
    """Full CI-overlap diff of two campaign-result sets."""

    deltas: List[CampaignDelta]
    only_old: List[str]
    only_new: List[str]
    mismatched: List[str] = field(default_factory=list)  # scenario/smoke drift
    unpaired_points: List[str] = field(default_factory=list)

    def regressions(self) -> List[CampaignDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    def improvements(self) -> List[CampaignDelta]:
        return [d for d in self.deltas if d.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions()


def _interval(summary: SampleSummary) -> Tuple[float, float]:
    """The gating interval: the CI, or the zero-width point at the mean
    for n=1 aggregates (no spread information — gate on the mean)."""
    if summary.ci_lo is None or summary.ci_hi is None:
        return (summary.mean, summary.mean)
    return (summary.ci_lo, summary.ci_hi)


def _params_key(params: Mapping[str, Any]) -> str:
    return json.dumps({k: params[k] for k in sorted(params)}, sort_keys=True,
                      default=str)


def compare_campaigns(old: Mapping[str, CampaignResult],
                      new: Mapping[str, CampaignResult]) -> CampaignComparison:
    """Diff two campaign-result sets keyed by campaign name.

    Points are paired by their **effective params**; differing *seed
    lists* are deliberately comparable — each side is a distribution, and
    the whole point of the aggregate is that mean ± CI of the same param
    point compares across seed choices.  A directional metric regresses
    only when its intervals are disjoint **and** the mean moved in the
    bad direction; overlapping intervals are statistically
    indistinguishable and report ``ok``.
    """
    from repro.bench.compare import _metric_direction

    deltas: List[CampaignDelta] = []
    mismatched: List[str] = []
    unpaired: List[str] = []
    for name in sorted(set(old) & set(new)):
        before, after = old[name], new[name]
        if (before.scenario != after.scenario
                or before.smoke != after.smoke):
            mismatched.append(name)
            continue
        old_points = {_params_key(p["params"]): p for p in before.points}
        new_points = {_params_key(p["params"]): p for p in after.points}
        for key in sorted(set(old_points) ^ set(new_points)):
            side = "OLD" if key in old_points else "NEW"
            unpaired.append(f"{name}: point {key} only in {side}")
        for key in sorted(set(old_points) & set(new_points)):
            op, np_ = old_points[key], new_points[key]
            shared = sorted(set(op["metrics"]) & set(np_["metrics"]))
            for metric in shared:
                o = SampleSummary.from_dict(op["metrics"][metric])
                n = SampleSummary.from_dict(np_["metrics"][metric])
                direction = _metric_direction(before.scenario, metric)
                if direction == "neutral":
                    status = "neutral"
                else:
                    o_lo, o_hi = _interval(o)
                    n_lo, n_hi = _interval(n)
                    overlap = n_lo <= o_hi and o_lo <= n_hi
                    if overlap:
                        status = "ok"
                    else:
                        worse = (n.mean > o.mean if direction == "lower"
                                 else n.mean < o.mean)
                        status = "regression" if worse else "improvement"
                deltas.append(CampaignDelta(
                    campaign=name, metric=metric, direction=direction,
                    params=dict(op["params"]), old=o, new=n, status=status))
    return CampaignComparison(
        deltas=deltas,
        only_old=sorted(set(old) - set(new)),
        only_new=sorted(set(new) - set(old)),
        mismatched=mismatched,
        unpaired_points=unpaired,
    )
