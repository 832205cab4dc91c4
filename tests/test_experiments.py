"""Tests for the sweep driver and the nine figure scenarios built on it.

These run small (n=64-128) sweeps — enough to exercise every code path and
check the *shape* constraints the paper reports, while keeping the suite
fast.  The benches run the full-size versions.
"""

import numpy as np
import pytest

from repro.bench import registry
from repro.bench.scenarios import figures  # importing the package registers all scenarios
from repro.core.treep import TreePNetwork
from repro.experiments import SweepConfig, run_failure_sweep

N = 128
LPS = 60
FIGURES = tuple(f"figure_{c}" for c in "abcdefghi")


@pytest.fixture(scope="module")
def sweep1():
    return run_failure_sweep(SweepConfig(n=N, seed=3, case="case1", lookups_per_step=LPS))


@pytest.fixture(scope="module")
def sweep2():
    return run_failure_sweep(SweepConfig(n=N, seed=3, case="case2", lookups_per_step=LPS))


class TestSweepDriver:
    def test_steps_cover_5_to_95(self, sweep1):
        fracs = [r.failed_fraction for r in sweep1.records]
        assert fracs[0] == pytest.approx(0.05, abs=0.01)
        assert fracs[-1] >= 0.90
        assert fracs == sorted(fracs)

    def test_all_algorithms_recorded(self, sweep1):
        for r in sweep1.records:
            assert set(r.per_algo) == {"G", "NG", "NGSA"}
            for stats in r.per_algo.values():
                assert stats.issued == LPS

    def test_surviving_counts_decrease(self, sweep1):
        s = [r.surviving for r in sweep1.records]
        assert s == sorted(s, reverse=True)

    def test_deterministic(self):
        cfg = SweepConfig(n=64, seed=9, lookups_per_step=30)
        a = run_failure_sweep(cfg)
        b = run_failure_sweep(cfg)
        for ra, rb in zip(a.records, b.records):
            for algo in ("G", "NG", "NGSA"):
                assert ra.per_algo[algo].failure_rate == rb.per_algo[algo].failure_rate

    def test_height_recorded(self, sweep1):
        assert sweep1.height >= 2


class TestPaperShapes:
    """The qualitative claims of §IV, asserted on the small sweep."""

    def test_failure_curve_grows(self, sweep1):
        """Fig A: failures grow with dead fraction (allowing noise)."""
        s = sweep1.failure_series("G")
        early = np.mean([s.ys()[i] for i in range(3)])
        late = np.mean([s.ys()[i] for i in range(-4, -1)])
        assert late > early

    def test_failures_moderate_at_30pct(self, sweep1):
        """Fig A: far from total collapse at 30% dead — the headline
        robustness claim (paper: ~10%)."""
        s = sweep1.failure_series("G")
        assert s.interp(30.0) <= 35.0

    def test_algorithms_within_band(self, sweep1):
        """Fig A: G / NG / NGSA comparable (paper: ~2%; noise at n=128)."""
        at30 = [sweep1.failure_series(a).interp(30.0) for a in ("G", "NG", "NGSA")]
        assert max(at30) - min(at30) <= 25.0

    def test_ngsa_no_worse_than_ng(self, sweep1):
        """Fig A: NGSA's fallback never hurts success."""
        ng = sweep1.failure_series("NG")
        ngsa = sweep1.failure_series("NGSA")
        assert np.mean(ngsa.ys()[:10]) <= np.mean(ng.ys()[:10]) + 6.0

    def test_hops_stable_until_high_failure(self, sweep1):
        """Fig B: hop count roughly flat over the first half of the sweep."""
        s = sweep1.hops_series("G")
        first = np.mean(s.ys()[:4])
        mid = np.mean(s.ys()[5:9])
        assert abs(mid - first) <= 3.0

    def test_case2_same_family_shape(self, sweep2):
        """Fig C: variable-nc failure curves resemble case 1's."""
        s = sweep2.failure_series("G")
        assert s.interp(30.0) <= 40.0
        early = np.mean(s.ys()[:3])
        late = np.mean(s.ys()[-4:-1])
        assert late > early - 5.0

    def test_fig_d_variable_nc_flatter_at_low_failure(self, sweep1, sweep2):
        """Fig D: the flattened variable-nc hierarchy needs fewer hops
        early in the sweep."""
        fixed = sweep1.hops_series("G").interp(10.0)
        variable = sweep2.hops_series("G").interp(10.0)
        assert variable <= fixed + 0.5

    def test_fig_e_failed_hops_bounded_by_ttl(self, sweep1):
        smax, smin = sweep1.failed_hops_series("G")
        assert smax.max_y() <= 256
        assert all(a >= b for a, b in zip(smax.ys(), smin.ys()))

    def test_surfaces_ridge_near_log_n(self, sweep1):
        """Figs F/G: the hop distribution peaks at a small constant."""
        surf = sweep1.surface("G")
        early_ridge = surf.ridge_hops()[:6]
        assert all(1 <= r <= 12 for r in early_ridge)

    def test_case2_peak_sharper(self, sweep1, sweep2):
        """Figs H/I vs F/G: variable-nc concentrates the distribution
        (paper: peak ~60% vs ~50%)."""
        peak1 = sweep1.surface("G").peak()[1]
        peak2 = sweep2.surface("G").peak()[1]
        assert peak2 >= peak1 - 10.0


class TestFigureScenarios:
    @pytest.mark.parametrize("name", FIGURES)
    def test_renders_own_figure(self, name):
        out = registry.get(name).execute(
            seed=3, overrides={"n": N, "lookups_per_step": LPS})
        assert f"Figure {name[-1].upper()} — " in out.rendered
        assert out.rendered.count("Figure ") == 1

    def test_nine_figures_run_two_sweeps(self, monkeypatch):
        cases = []

        def counting(config):
            cases.append(config.case)
            return run_failure_sweep(config)

        monkeypatch.setattr(figures, "run_failure_sweep", counting)
        figures._run_sweep.cache_clear()
        for name in FIGURES:
            registry.get(name).execute(
                seed=5, overrides={"n": 64, "lookups_per_step": 20})
        assert sorted(cases) == ["case1", "case2"]


@pytest.mark.parametrize("name, overrides, builds", [
    ("ngsa_cost", {"n": 64, "lookups": 30}, 1),
    ("table_sizes", {"n": 64}, 2),
], ids=["ngsa_cost", "table_sizes"])
def test_scenario_builds_each_network_once(name, overrides, builds, monkeypatch):
    built = []
    real_build = TreePNetwork.build

    def counting(self, *args, **kwargs):
        built.append(self)
        return real_build(self, *args, **kwargs)

    monkeypatch.setattr(TreePNetwork, "build", counting)
    registry.get(name).execute(seed=3, overrides=overrides)
    assert len(built) == builds
