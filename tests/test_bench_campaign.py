"""Tier-1 coverage for repro.bench.campaign: spec → grid → aggregate.

Pins the seed policy (exactly one repetition per (param point, seed), in
spec order), the aggregate math against a by-hand recompute, the
campaign-1 envelope round-trip and schema validation, the CI-overlap
compare semantics, and the CLI exit-code contract — all on the real
``core`` scenario run serially, so nothing here registers a synthetic
scenario (``test_bench_harness`` pins the registry at exactly 23).
"""

import glob
import json

import pytest

import repro.bench.scenarios  # noqa: F401  (populates the registry)
from repro.bench import registry
from repro.bench.campaign import (
    CAMPAIGN_SCHEMA,
    CampaignResult,
    compare_campaigns,
    deterministic_view,
    is_wallclock_metric,
    load_campaign,
    load_campaigns,
    parse_campaign,
    run_campaign,
    validate_campaign_dict,
)
from repro.bench.cli import main
from repro.metrics.stats import summarize_samples

SPEC_DICT = {"campaign": {
    "name": "unit", "scenario": "core", "seeds": [42, 43],
    "params": {"lookups": [40, 60]},
}}

SPEC_TOML = """\
[campaign]
name = "unit"
scenario = "core"
seeds = [42, 43]

[campaign.params]
lookups = [40, 60]
"""


@pytest.fixture(scope="module")
def campaign_result():
    """One real (serial, smoke) campaign shared by the read-only tests."""
    return run_campaign(parse_campaign(SPEC_DICT), smoke=True, workers=1)


# ------------------------------------------------------------ spec parsing

def test_parse_campaign_builds_the_grid():
    spec = parse_campaign(SPEC_DICT)
    assert spec.name == "unit" and spec.scenario == "core"
    assert spec.seeds == (42, 43)
    assert spec.points() == [{"lookups": 40}, {"lookups": 60}]
    assert len(spec) == 4  # 2 points × 2 seeds


def test_scalar_params_are_fixed_overrides():
    spec = parse_campaign({"campaign": {
        "name": "x", "scenario": "core", "seeds": [1],
        "params": {"lookups": [40, 60], "n": 128}}})
    assert spec.fixed == {"n": 128}
    assert spec.points() == [{"lookups": 40, "n": 128},
                             {"lookups": 60, "n": 128}]


def test_toml_and_json_specs_agree(tmp_path):
    toml_path, json_path = tmp_path / "c.toml", tmp_path / "c.json"
    toml_path.write_text(SPEC_TOML)
    json_path.write_text(json.dumps(SPEC_DICT))
    a, b = load_campaign(str(toml_path)), load_campaign(str(json_path))
    assert (a.name, a.scenario, a.seeds, a.axes, a.fixed) == \
           (b.name, b.scenario, b.seeds, b.axes, b.fixed)


def test_committed_campaign_specs_load():
    """Every spec CI runs loads into a valid campaign on a known scenario."""
    paths = sorted(glob.glob("benchmarks/campaigns/*.toml"))
    assert paths
    for path in paths:
        spec = load_campaign(path)
        assert spec.scenario in registry and len(spec) > 0, path


def test_parse_campaign_rejects_malformed_specs():
    def spec(**over):
        base = {"name": "x", "scenario": "core", "seeds": [1, 2]}
        base.update(over)
        return {"campaign": base}

    for data, msg in [
        ({}, "non-empty"),
        (spec(bogus=1), "unknown"),
        (spec(name="no spaces"), "name"),
        (spec(seeds=[]), "seeds"),
        (spec(seeds=[1, 1]), "distinct"),
        (spec(seeds=[1, True]), "seeds"),
        (spec(confidence=1.5), "confidence"),
        (spec(ci="wald"), "ci must be"),
        (spec(resamples=0), "resamples"),
        (spec(params={"lookups": []}), "sweeps no values"),
        (spec(params="nope"), "params"),
    ]:
        with pytest.raises(ValueError, match=msg):
            parse_campaign(data)


def test_run_campaign_fails_fast_on_bad_grid():
    with pytest.raises(KeyError, match="unknown scenario"):
        run_campaign(parse_campaign({"campaign": {
            "name": "x", "scenario": "nope", "seeds": [1]}}), smoke=True)
    with pytest.raises(KeyError, match="no parameter"):
        run_campaign(parse_campaign({"campaign": {
            "name": "x", "scenario": "core", "seeds": [1],
            "params": {"bogus": [1, 2]}}}), smoke=True)


# -------------------------------------------------------------- seed policy

def test_exactly_one_repetition_per_point_and_seed(campaign_result):
    r = campaign_result
    assert len(r.points) == 2
    for point in r.points:
        # one repetition per seed, in spec order, each at this point's params
        assert [rep["seed"] for rep in point["repetitions"]] == [42, 43]
        for rep in point["repetitions"]:
            assert rep["params"]["lookups"] == point["params"]["lookups"]
            assert rep["smoke"] is True
        for entry in point["metrics"].values():
            assert entry["n"] == 2


def test_rerun_is_identical_up_to_wallclock(campaign_result):
    again = run_campaign(parse_campaign(SPEC_DICT), smoke=True, workers=1)
    a, b = campaign_result.to_dict(), again.to_dict()
    assert deterministic_view(a) == deterministic_view(b)
    # ...and the view really strips the fields that may legitimately move
    dv = deterministic_view(a)
    for field in ("wall_time_s", "unix_time", "git_sha"):
        assert field in a and field not in dv
    for point in dv["points"]:
        assert not any(is_wallclock_metric(m) for m in point["metrics"])
        for rep in point["repetitions"]:
            assert "wall_time_s" not in rep


# ---------------------------------------------------------- aggregate math

def test_aggregates_match_manual_recompute(campaign_result):
    for point in campaign_result.points:
        for name, entry in point["metrics"].items():
            samples = [rep["metrics"][name] for rep in point["repetitions"]]
            assert entry == summarize_samples(samples).to_dict()
    assert campaign_result.metrics_aggregated == sum(
        len(p["metrics"]) for p in campaign_result.points)


def test_failed_checks_name_the_failing_seeds():
    # seed 44 fails core's healthy_lookups_succeed at smoke params (97.5%
    # success < the 98% floor); seed 42 passes — the aggregate must say so.
    result = run_campaign(parse_campaign({"campaign": {
        "name": "fail", "scenario": "core", "seeds": [42, 44],
        "params": {"lookups": [40]}}}), smoke=True, workers=1)
    failed = result.failed_checks()
    assert failed, "expected seed 44 to fail a core check"
    assert all(c["failed_seeds"] == [44] for c in failed)


# ------------------------------------------------- envelope + validation

def test_campaign_envelope_roundtrips_through_json(tmp_path, campaign_result):
    path = campaign_result.write(str(tmp_path))
    assert path.endswith("campaign_unit.smoke.json")  # smoke never clobbers
    raw = json.loads((tmp_path / "campaign_unit.smoke.json").read_text())
    validate_campaign_dict(raw)
    assert raw["schema"] == CAMPAIGN_SCHEMA
    loaded = CampaignResult.read(path)
    assert loaded.to_dict() == campaign_result.to_dict()
    assert set(load_campaigns(str(tmp_path))) == {"unit"}


def test_validate_rejects_malformed_campaign_envelopes(campaign_result):
    good = campaign_result.to_dict()
    for mutate, msg in [
        (lambda d: d.pop("seeds"), "missing fields"),
        (lambda d: d.update(schema="repro.bench/999"), "schema"),
        (lambda d: d.update(points=[]), "non-empty"),
        (lambda d: d["points"][0].pop("repetitions"), "repetitions"),
        (lambda d: d["points"][0].update(metrics={}), "non-empty"),
        (lambda d: d["points"][0]["metrics"].update(x={"mean": 1}), "missing"),
        (lambda d: d["points"][0]["repetitions"].pop(), "per seed"),
        (lambda d: d["points"][0]["repetitions"][0].pop("git_sha"), "git_sha"),
    ]:
        bad = json.loads(json.dumps(good))
        mutate(bad)
        with pytest.raises(ValueError, match=msg):
            validate_campaign_dict(bad)


def test_load_campaigns_prefers_full_over_smoke_twin(tmp_path,
                                                     campaign_result):
    campaign_result.write(str(tmp_path))
    full = json.loads(json.dumps(campaign_result.to_dict()))
    full["smoke"] = False
    path = tmp_path / "campaign_unit.json"
    path.write_text(json.dumps(full))
    assert load_campaigns(str(tmp_path))["unit"].smoke is False


# ---------------------------------------------------- CI-overlap compare

def _directional_metric(result):
    """Some aggregated metric of the campaign's scenario that compare gates."""
    scenario = registry.get(result.scenario)
    names = set(result.points[0]["metrics"])
    for m in scenario.metrics:
        if m.direction != "neutral" and m.name in names:
            return m.name, m.direction
    raise AssertionError("core has no directional aggregated metric")


def _shifted(result, metric, delta):
    """A deep copy with *metric*'s aggregate translated by *delta* at every
    point — CI and mean move together, so a large delta makes the
    intervals disjoint while keeping the envelope schema-valid."""
    data = json.loads(json.dumps(result.to_dict()))
    for point in data["points"]:
        entry = point["metrics"][metric]
        for key in ("mean", "ci_lo", "ci_hi"):
            if entry[key] is not None:
                entry[key] += delta
    return CampaignResult.from_dict(data)


def test_compare_identical_campaigns_is_ok(campaign_result):
    comparison = compare_campaigns({"unit": campaign_result},
                                   {"unit": campaign_result})
    assert comparison.ok
    assert not comparison.regressions()
    assert comparison.deltas  # identical still compares every metric
    assert all(d.status in ("ok", "neutral") for d in comparison.deltas)


def test_disjoint_cis_in_the_bad_direction_regress(campaign_result):
    metric, direction = _directional_metric(campaign_result)
    bad = 1e6 if direction == "lower" else -1e6
    worse = _shifted(campaign_result, metric, bad)
    comparison = compare_campaigns({"unit": campaign_result},
                                   {"unit": worse})
    assert not comparison.ok
    assert {d.metric for d in comparison.regressions()} == {metric}
    # the same move in the good direction is an improvement, not a gate
    better = _shifted(campaign_result, metric, -bad)
    comparison = compare_campaigns({"unit": campaign_result},
                                   {"unit": better})
    assert comparison.ok
    assert {d.metric for d in comparison.improvements()} == {metric}


def test_overlapping_cis_report_ok_not_regression(campaign_result):
    # a shift far smaller than any CI width keeps every interval overlapping
    metric, direction = _directional_metric(campaign_result)
    nudged = _shifted(campaign_result, metric, 1e-12)
    comparison = compare_campaigns({"unit": campaign_result},
                                   {"unit": nudged})
    assert comparison.ok and not comparison.improvements()


def test_differing_seed_lists_still_compare():
    """The point of the aggregate: distributions compare across seed
    choices, where single-run compare would refuse the pair."""
    spec = {"campaign": {"name": "unit", "scenario": "core",
                         "seeds": [47, 49], "params": {"lookups": [40, 60]}}}
    a = run_campaign(parse_campaign(SPEC_DICT), smoke=True, workers=1)
    b = run_campaign(parse_campaign(spec), smoke=True, workers=1)
    comparison = compare_campaigns({"unit": a}, {"unit": b})
    assert not comparison.mismatched
    assert comparison.deltas


def test_scenario_or_smoke_drift_is_mismatched_not_gated(campaign_result):
    data = json.loads(json.dumps(campaign_result.to_dict()))
    data["smoke"] = False
    full = CampaignResult.from_dict(data)
    comparison = compare_campaigns({"unit": campaign_result}, {"unit": full})
    assert comparison.mismatched == ["unit"]
    assert not comparison.deltas and comparison.ok


def test_unpaired_points_and_campaign_sets_inform_not_gate(campaign_result):
    data = json.loads(json.dumps(campaign_result.to_dict()))
    data["points"] = data["points"][:1]  # drop the lookups=60 point
    fewer = CampaignResult.from_dict(data)
    comparison = compare_campaigns({"unit": campaign_result},
                                   {"unit": fewer, "extra": fewer})
    assert comparison.ok
    assert len(comparison.unpaired_points) == 1
    assert "only in OLD" in comparison.unpaired_points[0]
    assert comparison.only_new == ["extra"]
    assert compare_campaigns({"unit": campaign_result}, {}).only_old == \
        ["unit"]


# ---------------------------------------------------------------------- CLI

def _write_spec(tmp_path, name="cli"):
    path = tmp_path / "spec.toml"
    path.write_text(SPEC_TOML.replace('"unit"', f'"{name}"'))
    return str(path)


def test_cli_campaign_run_writes_aggregate(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    out = tmp_path / "out"
    rc = main(["campaign", "run", spec, "--smoke", "--quiet",
               "--out", str(out)])
    assert rc == 0
    assert (out / "campaign_cli.smoke.json").exists()
    stdout = capsys.readouterr().out
    assert "2 param point(s) × 2 seed(s) = 4 repetition(s)" in stdout
    assert "[4/4]" in stdout


def test_cli_bare_spec_implies_run(tmp_path):
    # the acceptance-path sugar: `campaign SPEC --workers N`
    spec = _write_spec(tmp_path, name="sugar")
    rc = main(["campaign", spec, "--smoke", "--quiet", "--no-write"])
    assert rc == 0


def test_cli_campaign_run_exit_codes(tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text("[campaign]\nname = \"x\"\n")
    with pytest.raises(SystemExit, match="cannot load campaign spec"):
        main(["campaign", "run", str(bad), "--no-write"])
    spec = _write_spec(tmp_path)
    with pytest.raises(SystemExit, match="--workers"):
        main(["campaign", "run", spec, "--workers", "0", "--no-write"])
    # a failing check gates unless --no-checks (seed 44 fails core's
    # success-rate floor at smoke params)
    failing = tmp_path / "failing.toml"
    failing.write_text(SPEC_TOML.replace("[42, 43]", "[42, 44]")
                       .replace('"unit"', '"failing"'))
    args = ["campaign", "run", str(failing), "--smoke", "--quiet",
            "--no-write"]
    assert main(args) == 1
    assert main(args + ["--no-checks"]) == 0


def test_cli_campaign_report_and_plots(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    out = tmp_path / "out"
    assert main(["campaign", "run", spec, "--smoke", "--quiet",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    plots = tmp_path / "plots"
    rc = main(["campaign", "report", str(out), "--plots", str(plots)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "### campaign `cli`" in stdout
    assert "#### point 0: `lookups=40, n=256`" in stdout
    # matplotlib is a soft dependency: either plots were written or the
    # report says why not — never a crash
    if "plots skipped" in stdout:
        assert "matplotlib" in stdout
    else:
        assert list(plots.glob("campaign_cli_*.png"))


def test_cli_campaign_compare_exit_codes(tmp_path, capsys, campaign_result):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    campaign_result.write(str(old))
    metric, direction = _directional_metric(campaign_result)
    bad = 1e6 if direction == "lower" else -1e6
    _shifted(campaign_result, metric, bad).write(str(new))
    assert main(["campaign", "compare", str(old), str(old)]) == 0
    assert main(["campaign", "compare", str(old), str(new)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # comparing nothing must not report a pass
    data = json.loads(json.dumps(campaign_result.to_dict()))
    data["campaign"] = "other"
    disjoint = tmp_path / "disjoint"
    disjoint.mkdir()
    CampaignResult.from_dict(data).write(str(disjoint))
    assert main(["campaign", "compare", str(old), str(disjoint)]) == 2
    assert "zero metrics" in capsys.readouterr().out


def test_cli_compare_routes_campaign_aggregates(tmp_path, capsys,
                                                campaign_result):
    """Satellite: plain `compare OLD NEW` recognises campaign_*.json and
    gates mean ± CI per param point instead of skipping the pair."""
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    campaign_result.write(str(old))
    campaign_result.write(str(new))
    assert main(["compare", str(old), str(new)]) == 0
    assert "compared by CI overlap" in capsys.readouterr().out
    # single campaign file, not a directory, routes the same way
    path = old / "campaign_unit.smoke.json"
    assert main(["compare", str(path), str(path)]) == 0
    # an injected disjoint regression gates the combined exit code
    metric, direction = _directional_metric(campaign_result)
    bad = 1e6 if direction == "lower" else -1e6
    _shifted(campaign_result, metric, bad).write(str(new))
    capsys.readouterr()
    assert main(["compare", str(old), str(new)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
