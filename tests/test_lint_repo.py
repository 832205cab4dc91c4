"""The analyzer against the real tree: ``src/repro`` must be clean and
the three views of the layer architecture — import graph, layers.toml,
and the prose contracts in package ``__init__`` docstrings — must agree,
so none of them can drift without a test failing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.engine import LintEngine
from repro.lint.layers import contract_drift, load_layer_map, parse_contract
from repro.lint.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def layer_map():
    return load_layer_map()


@pytest.fixture(scope="module")
def repo_report(layer_map):
    engine = LintEngine(
        root=REPO_ROOT,
        rules={code: r.check for code, r in all_rules().items()},
        layers=layer_map,
    )
    return engine.run([SRC])


class TestRepoIsClean:
    def test_src_has_no_violations(self, repo_report):
        details = "\n".join(
            f"{v.path}:{v.line}:{v.col} {v.code} {v.message}"
            for v in repo_report.violations
        )
        assert repo_report.clean, f"repro.lint found violations:\n{details}"

    def test_scan_actually_covered_the_tree(self, repo_report):
        # Guard against a silently-empty run masquerading as clean.
        assert repo_report.files >= 100

    def test_every_suppression_is_justified(self):
        # RPR001 in the repo would show up as a violation above; this
        # pins the *count* of justified suppressions so a new one is a
        # conscious, reviewed decision.
        from repro.lint.engine import parse_suppressions

        total = 0
        for path in sorted(SRC.rglob("*.py")):
            for sup in parse_suppressions(path.read_text()).values():
                assert sup.justification, f"bare suppression in {path}"
                total += 1
        assert total == 3

    def test_cli_default_invocation_exits_zero(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--format=github"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "::error" not in proc.stdout


class TestContractsMatchLayerMap:
    """RPR202 in test form: the prose contracts cannot drift from the map."""

    def _contract_packages(self, layer_map):
        import ast

        out = []
        for init in sorted(SRC.glob("repro/*/__init__.py")):
            package = init.parent.name
            doc = ast.get_docstring(ast.parse(init.read_text()), clean=False)
            contract = parse_contract(doc, set(layer_map.packages))
            if not contract.empty:
                out.append((package, contract))
        return out

    def test_documented_contracts_exist(self, layer_map):
        packages = {p for p, _ in self._contract_packages(layer_map)}
        # The load-bearing contracts named by the issue must be present
        # as parseable prose, not just as TOML.
        assert {"core", "obs", "cluster", "compute", "bench", "storage"} <= packages

    def test_no_drift_between_prose_and_toml(self, layer_map):
        for package, contract in self._contract_packages(layer_map):
            drift = contract_drift(layer_map, package, contract)
            assert drift == [], f"{package}: " + "; ".join(drift)


class TestIssueInvariantsPinned:
    """The specific architecture facts the analyzer exists to defend."""

    def test_core_sees_only_the_kernel_and_the_hub(self, layer_map):
        core = layer_map.packages["core"]
        assert core.reachable == {"sim", "obs"}
        for forbidden in ("cluster", "services", "storage", "compute"):
            assert forbidden not in core.reachable

    def test_core_reaches_obs_only_via_runtime_hub(self, layer_map):
        assert layer_map.packages["core"].via["obs"] == ("repro.obs.runtime",)

    def test_sim_imports_nothing(self, layer_map):
        assert layer_map.packages["sim"].reachable == frozenset()

    def test_nothing_below_cluster_imports_bench(self, layer_map):
        assert layer_map.consumers["bench"] == frozenset()
        assert layer_map.actual_consumers("bench") == frozenset()

    def test_nothing_imports_the_linter(self, layer_map):
        assert layer_map.consumers["lint"] == frozenset()
        assert layer_map.actual_consumers("lint") == frozenset()

    def test_cluster_composes_subsystems_lazily(self, layer_map):
        cluster = layer_map.packages["cluster"]
        assert cluster.may_import == {"core", "sim"}
        assert {"compute", "obs", "services", "storage"} <= cluster.lazy

    def test_determinism_scope_covers_simulation_tiers(self, layer_map):
        assert set(layer_map.config["determinism"]["packages"]) == {
            "compute", "core", "obs", "services", "sim", "storage",
        }

    def test_every_package_directory_is_mapped(self, layer_map):
        on_disk = {
            p.parent.name for p in SRC.glob("repro/*/__init__.py")
        }
        assert on_disk <= set(layer_map.packages)


class TestDocsCoverRules:
    def test_static_analysis_doc_lists_every_rule(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        for code in sorted(all_rules()):
            assert code in doc, f"{code} missing from docs/static-analysis.md"
        # engine-owned diagnostics are part of the contract too
        assert "RPR000" in doc
        assert "RPR001" in doc
