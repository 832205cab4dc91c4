"""Shared plumbing for the pytest-benchmark entry points.

Every ``bench_*.py`` here is a one-line binding of a registered
``repro.bench`` scenario to pytest-benchmark — the measurement logic,
parameter grids (full and ``--smoke``), metric schemas and the invariant
checks the old bench files asserted all live in
``src/repro/bench/scenarios/``.  Running a bench file via pytest executes
the identical code path as ``python -m repro.bench run <name>``, prints
the regenerated figure/table (so the bench log still doubles as the
results record), and writes the same ``benchmarks/out/bench_<name>.json``
``BenchResult`` envelope the CLI emits — pytest runs and CLI runs feed
one perf trajectory.

The two underlying figure sweeps (case 1 / case 2) stay memoised per
process (``_run_sweep`` in :mod:`repro.bench.scenarios.figures`): the first
figure bench touching a case pays for its sweep, the rest measure only
extraction + rendering.
"""

import os

from repro.bench import testing

#: Where every bench run (pytest or CLI) drops its BenchResult envelope.
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def scenario_bench(name: str):
    """Bind registered scenario *name* to a pytest-benchmark test."""
    return testing.pytest_scenario(name, out_dir=OUT_DIR)
