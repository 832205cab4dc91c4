"""``repro.lint`` — the AST-based invariant analyzer (``python -m repro.lint``).

The reproduction's correctness rests on invariants the test suite can only
spot-check: fixed-seed determinism (PR 5's bit-identical-metrics
discipline), RNG/schedule-neutral observability (PR 6/7's nil-guarded
instrumentation), registry-owned handler/timer cleanup (PR 3),
``__slots__`` on hot-path records (PR 5) and the owns/may-import layer
contracts in the package ``__init__`` docstrings.  This package turns each
of those into a machine-checked rule with a stable code:

========  ==============================================================
RPR1xx    determinism — no wall clock / global RNG / set-order decisions
RPR2xx    layering — import graph vs ``layers.toml`` + docstring drift
RPR3xx    lifecycle — paired handler/timer cleanup outside the registry
RPR4xx    perf/obs hygiene — ``__slots__`` records, nil-guarded obs
========  ==============================================================

Suppress a finding per line with a *justified* comment::

    rng = random.Random(node.ident)  # repro-lint: disable=RPR101 per-node phase, seeded by ident

A bare ``disable=`` without justification earns RPR001 and the original
violation stands.  See ``docs/static-analysis.md`` for the full catalogue,
CLI reference and the baseline workflow.

Layer contract: this package *owns invariant enforcement* — it is
stdlib-only, imports nothing from ``repro`` at analysis time (the linter
must never be taken down by a bug in the code it lints), and nothing in
``src/repro`` imports it; it is reached only through ``python -m
repro.lint`` and the tests.
"""

from repro.lint.engine import (
    FileContext,
    LintEngine,
    LintReport,
    ProjectContext,
    Violation,
    load_baseline,
    write_baseline,
)
from repro.lint.layers import (
    Contract,
    LayerMap,
    LayerPolicy,
    contract_drift,
    default_layers_path,
    load_layer_map,
    parse_contract,
)
from repro.lint.rules import REGISTRY, Rule, all_rules, rule

__all__ = [
    "Contract",
    "FileContext",
    "LayerMap",
    "LayerPolicy",
    "LintEngine",
    "LintReport",
    "ProjectContext",
    "REGISTRY",
    "Rule",
    "Violation",
    "all_rules",
    "contract_drift",
    "default_layers_path",
    "load_baseline",
    "load_layer_map",
    "parse_contract",
    "rule",
    "write_baseline",
]
