"""Adaptive test flows: sequential stopping, SPC abort, excursion scenarios.

The paper fixes count limits and sample counts per scenario up front; a
real screening line *adapts*.  This package mounts three coupled adaptive
mechanisms on top of the existing decision machinery
(:mod:`repro.analysis.binomial`, :mod:`repro.analysis.error_model`,
:mod:`repro.core.decision`) and the scenario/campaign front door:

:mod:`repro.flows.sequential`
    A curtailed sequential station: each device is rejected when its
    first failing code closes and accepted at the end of the record, so
    the verdicts stay the fixed flow's, and the codes it never had to
    observe are priced as saved tester-seconds through the existing
    tester economics.
:mod:`repro.flows.spc`
    Wafer-level statistical process control: a p-chart on the per-shard
    reject fraction and a CUSUM on the per-shard mean measured |DNL|,
    observed over shard results as they stream out of the
    :class:`~repro.production.execution.ShardExecutor`, raising a typed
    :class:`~repro.production.execution.ExcursionAbort` that stops the
    remaining shards of an excursed wafer.
:mod:`repro.flows.excursions`
    Non-IID scenario generators — spatially correlated wafer maps,
    lot-to-lot parameter drift, burst fault clusters — as deterministic
    per-wafer-seeded transforms on the drawn transition matrices, exposed
    as the ``Scenario.excursion`` axis.

Scenarios select the adaptive path with ``flow="sprt"`` (full BIST only)
and an optional ``excursion`` name; ``repro campaign --flow fixed,sprt
--excursion none,drift`` grids how each flow degrades under each
excursion.
"""

from repro.flows.excursions import EXCURSIONS, apply_excursion
from repro.flows.sequential import (
    SequentialDecision,
    code_pass_matrix,
    sprt_decide,
)
from repro.flows.spc import Cusum, PChart, SpcMonitor, monitor_for_model

__all__ = [
    "Cusum",
    "EXCURSIONS",
    "PChart",
    "SequentialDecision",
    "SpcMonitor",
    "apply_excursion",
    "code_pass_matrix",
    "monitor_for_model",
    "sprt_decide",
]
