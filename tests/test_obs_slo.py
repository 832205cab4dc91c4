"""SLO tier: spec parsing (TOML/JSON),
offline evaluation of every rule kind, the streaming monitor's live
violation events, schedule-neutrality, and the bench ``--slo`` gate."""

import json

import pytest

from repro.bench.cli import main as bench_cli
from repro.bench.result import BenchResult
from repro.bench.runner import run_scenario
from repro.cluster import Cluster
from repro.obs import (STATUS_FAIL, STATUS_OK, STATUS_TIMEOUT, ObsHub,
                       SloSpec, TraceReader, evaluate_hub, evaluate_store,
                       load_slo, parse_slo, write_store)
from repro.obs.slo import StreamingSloMonitor

SPEC_TOML = """
# latency + rates on one category, wildcard error budget
[slo.storage.put]
p99 = 0.5
max_failure_rate = 0.1
min_samples = 5

[slo."storage.get"]
p50 = 0.4
max_timeout_rate = 0.05

[slo."*"]
node_error_budget = 3
"""


def _rule_names(spec):
    return sorted(r.name for r in spec.rules)


# ------------------------------------------------------------------ parsing
def test_parse_toml_dotted_and_quoted_headers(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(SPEC_TOML)
    spec = load_slo(str(path))
    assert _rule_names(spec) == [
        "*.node_error_budget", "storage.get.p50", "storage.get.timeout_rate",
        "storage.put.failure_rate", "storage.put.p99"]
    put_p99 = next(r for r in spec.rules if r.name == "storage.put.p99")
    assert put_p99.quantile == 0.99 and put_p99.limit == 0.5
    assert put_p99.min_samples == 5


def test_parse_json_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"slo": {"lookup": {"p999": 1.0, "max_failure_rate": 0.2}}}))
    spec = load_slo(str(path))
    assert _rule_names(spec) == ["lookup.failure_rate", "lookup.p999"]


@pytest.mark.parametrize("data, fragment", [
    ({}, "non-empty"),
    ({"slo": {}}, "non-empty"),
    ({"slo": {"lookup": {"p98": 1.0}}}, "unknown objective"),
    ({"slo": {"lookup": {"p99": "fast"}}}, "must be numeric"),
    ({"slo": {"p99": 1.0}}, "directly under"),
    ({"slo": {"lookup": {"p99": 1.0, "min_samples": -1}}}, "min_samples"),
])
def test_parse_rejects_malformed_specs(data, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_slo(data)


# --------------------------------------------------------------- evaluation
def _hub_with_mixed_spans():
    hub = ObsHub()
    for i in range(20):  # node 1: fast, ok
        hub.span("lookup", 1, float(i), float(i) + 0.1)
    for i in range(10):  # node 2: slow + failing
        hub.span("lookup", 2, float(i), float(i) + 2.0,
                 status=STATUS_FAIL if i < 4 else STATUS_OK)
    hub.span("lookup", 2, 50.0, 51.0, status=STATUS_TIMEOUT)
    return hub


def test_offline_evaluation_every_rule_kind():
    spec = parse_slo({"slo": {"lookup": {
        "p99": 0.5, "max_failure_rate": 0.1, "max_timeout_rate": 0.5,
        "node_error_budget": 2}}})
    results = {r.name: r for r in evaluate_hub(spec, _hub_with_mixed_spans())}
    assert not results["lookup.p99"].ok            # slow tail breaches 0.5
    assert results["lookup.p99"].observed > 0.5
    assert not results["lookup.failure_rate"].ok   # 4/31 > 0.1
    assert results["lookup.timeout_rate"].ok       # 1/31 < 0.5
    budget = results["lookup.node_error_budget"]
    assert not budget.ok and budget.observed == 5.0
    assert "worst node 2" in budget.detail


def test_min_samples_skips_instead_of_failing():
    hub = ObsHub()
    hub.span("lookup", 1, 0.0, 9.0)  # one hideous sample
    spec = parse_slo({"slo": {"lookup": {"p99": 0.1, "min_samples": 10}}})
    (res,) = evaluate_hub(spec, hub)
    assert res.ok and "skipped" in res.detail and res.samples == 1


def test_wildcard_expands_over_present_categories():
    hub = ObsHub()
    hub.span("a", 1, 0.0, 1.0, status=STATUS_FAIL)
    hub.span("b", 1, 0.0, 1.0)
    spec = parse_slo({"slo": {"*": {"max_failure_rate": 0.5}}})
    names = sorted(r.name for r in evaluate_hub(spec, hub))
    assert names == ["a.failure_rate", "b.failure_rate"]


def test_evaluate_store_roundtrip(tmp_path):
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": _hub_with_mixed_spans()})
    spec = parse_slo({"slo": {"lookup": {"max_failure_rate": 0.01}}})
    with TraceReader(path) as reader:
        report = evaluate_store(spec, reader)
    assert not report.passed
    (violation,) = report.violations()
    assert violation[0] == "run-000"
    assert violation[1].name == "lookup.failure_rate"
    d = report.to_dict()
    assert d["passed"] is False and len(d["violations"]) == 1
    assert d["violations"][0]["rule"] == "lookup.failure_rate"


# ---------------------------------------------------------------- streaming
def test_streaming_monitor_emits_one_latched_violation():
    hub = ObsHub()
    spec = parse_slo({"slo": {"lookup": {"max_failure_rate": 0.1}}})
    monitor = StreamingSloMonitor(spec, hub, check_every=4)
    for i in range(20):
        hub.span("lookup", 7, float(i), float(i) + 0.1, status=STATUS_FAIL)
    assert len(monitor.violations) == 1  # latched after the first trip
    assert hub.category_counts()["slo.violation"] == 1
    (v,) = hub.extras["slo_violations"]
    assert v["rule"] == "lookup.failure_rate" and v["observed"] > 0.1


def test_streaming_final_check_catches_tail_violations():
    hub = ObsHub()
    spec = parse_slo({"slo": {"lookup": {"p99": 0.2}}})
    monitor = StreamingSloMonitor(spec, hub, check_every=1000)
    for i in range(3):  # too few spans to hit a window before run end
        hub.span("lookup", 1, float(i), float(i) + 1.0)
    assert not monitor.violations  # ok spans never force an early check
    hub.finalize()  # hub finalize drives final_check()
    assert len(monitor.violations) == 1
    assert monitor.violations[0]["rule"] == "lookup.p99"


def test_streaming_latency_rule_uses_hub_sketch():
    hub = ObsHub()
    spec = parse_slo({"slo": {"lookup": {"p99": 0.2}}})
    StreamingSloMonitor(spec, hub, check_every=8)
    for i in range(64):
        hub.span("lookup", 1, float(i), float(i) + 1.0)
    assert hub.extras["slo_violations"][0]["rule"] == "lookup.p99"


def test_streaming_violations_survive_into_the_store(tmp_path):
    hub = ObsHub()
    spec = parse_slo({"slo": {"lookup": {"max_failure_rate": 0.01}}})
    StreamingSloMonitor(spec, hub)
    hub.span("lookup", 3, 0.0, 0.5, status=STATUS_FAIL)
    path = str(tmp_path / "v.npz")
    write_store(path, {"run-000": hub})
    with TraceReader(path) as reader:
        extras = reader.run_extras("run-000")
        assert extras["slo_violations"][0]["rule"] == "lookup.failure_rate"
        events = reader.events("run-000", category="slo.violation")
        assert len(events) == 1


def test_live_slo_monitoring_is_schedule_neutral():
    """A run with live SLO evaluation must stay bit-identical (in virtual
    time) to the same seeded run without observability at all."""
    spec = parse_slo({"slo": {"storage.put": {"p99": 0.001}}})  # fires a lot

    def workload(slo):
        c = Cluster(seed=321).build(24)
        if slo is not None:
            c.with_observability(slo=slo)
        c.with_storage()
        for i in range(12):
            c.storage.put(f"k{i}", i)
        return (c.sim.now, c.sim.events_processed), c

    base, _ = workload(None)
    monitored, cluster = workload(spec)
    assert monitored == base
    cluster.obs.finalize()  # run close drives the monitor's final check
    assert cluster.obs.extras["slo_violations"]  # the tight limit tripped


# ------------------------------------------------------------ bench plumbing
def test_bench_result_slo_field_roundtrip_and_byte_identity(tmp_path):
    plain = run_scenario("storage", smoke=True)
    assert "slo" not in json.loads(plain.to_json())

    spec_path = tmp_path / "ok.toml"
    spec_path.write_text("[slo.storage.put]\np99 = 100.0\n")
    gated = run_scenario("storage", smoke=True, slo=str(spec_path))
    assert gated.slo["passed"] is True
    assert gated.slo["spec_file"] == str(spec_path)
    assert "obs" not in json.loads(gated.to_json())  # no trace written

    loaded = BenchResult.from_dict(json.loads(gated.to_json()))
    assert loaded.slo == gated.slo


def test_bench_cli_slo_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.toml"
    good.write_text("[slo.storage.put]\np99 = 100.0\n")
    assert bench_cli(["run", "storage", "--smoke", "--no-write", "--quiet",
                      "--slo", str(good)]) == 0

    bad = tmp_path / "bad.toml"
    bad.write_text("[slo.storage.put]\np99 = 0.0001\n")
    capsys.readouterr()
    assert bench_cli(["run", "storage", "--smoke", "--no-write", "--quiet",
                      "--slo", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SLO VIOLATION" in out and "storage.put.p99" in out


def test_obs_cli_slo_subcommand(tmp_path, capsys):
    from repro.obs.cli import main as obs_cli

    run_scenario("storage", smoke=True, trace_out=str(tmp_path))
    trace = str(tmp_path / "trace_storage.smoke.npz")
    good = tmp_path / "good.toml"
    good.write_text("[slo.storage.put]\np99 = 100.0\n")
    assert obs_cli(["slo", trace, "--spec", str(good)]) == 0
    assert "all objectives met" in capsys.readouterr().out

    bad = tmp_path / "bad.toml"
    bad.write_text("[slo.storage.put]\np99 = 0.0001\n")
    assert obs_cli(["slo", trace, "--spec", str(bad)]) == 1
    assert "SLO VIOLATION" in capsys.readouterr().out


def test_committed_smoke_spec_passes_on_the_smoke_run():
    spec = load_slo("benchmarks/slo/smoke.toml")
    assert isinstance(spec, SloSpec) and len(spec) >= 5
    result = run_scenario("storage", smoke=True,
                          slo="benchmarks/slo/smoke.toml")
    assert result.slo["passed"] is True, result.slo["violations"]


def test_status_constants_still_cover_the_spec():
    # the rate rules key off these exact codes; a renumbering must not
    # silently invert ok/fail accounting
    assert (STATUS_OK, STATUS_FAIL, STATUS_TIMEOUT) == (1, 2, 3)
