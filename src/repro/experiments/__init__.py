"""Experiment drivers — the computations behind the paper's figures and tables.

All nine §IV figures derive from the same protocol (build a TreeP network,
reach steady state, disconnect 5% of the initial population per step with
no repopulation, measure a lookup batch per step), so they are views of
:func:`repro.experiments.common.run_failure_sweep`; the other experiments
(:mod:`~repro.experiments.ngsa_cost`, :mod:`~repro.experiments.table_sizes`,
:mod:`~repro.experiments.ablations`) reuse its failure loop,
:func:`~repro.experiments.common.failure_steps`.  This package only
computes: the ``repro.bench`` scenarios render each figure and table
(``python -m repro.bench run figure_a``).
"""

from repro.experiments.common import (
    StepRecord,
    SweepConfig,
    SweepResult,
    run_failure_sweep,
)

__all__ = [
    "StepRecord",
    "SweepConfig",
    "SweepResult",
    "run_failure_sweep",
]
