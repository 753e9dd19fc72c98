"""Scenario/Campaign API: the single front door over every engine.

This package is the declarative layer the rest of the reproduction is
driven through:

:mod:`repro.campaign.scenario` — :class:`Scenario`, a frozen value object
    naming everything one screening run depends on (architecture, method,
    ``q``, resolution, noise, wafer geometry, tester, seed), with
    :meth:`~Scenario.derive` and :meth:`~Scenario.grid` helpers for
    building comparison grids that normalise and deduplicate themselves.

:mod:`repro.campaign.factory` — :func:`make_engine`, the only place batch
    engines are constructed (the screening line and the CLI build theirs
    through it), plus :func:`default_tester` for the per-method tester
    economics.

:mod:`repro.campaign.driver` — :class:`Campaign`, which fans a scenario
    list/grid across the deterministic scale-out layer
    (:class:`~repro.production.execution.ExecutionPlan`) with per-scenario
    child seeds and keeps every scenario's report in one
    :class:`~repro.production.store.ResultStore`
    (:meth:`~repro.production.store.ResultStore.campaign_table`).

Quick start
-----------

>>> from repro.campaign import Campaign, Scenario
>>> grid = Scenario(n_bits=8, n_devices=500).grid(
...     architecture=["flash", "sar"], method=["bist", "histogram"],
...     q=[4, 8])
>>> result = Campaign(grid, seed=7).run()
>>> print(result.table())            # doctest: +SKIP

On the command line the same grid is ``repro campaign --arch flash,sar
--method bist,histogram --q 4,8``.
"""

from repro.campaign.scenario import AUTO_Q, FLOWS, Scenario, TESTER_CHOICES
from repro.campaign.factory import (
    BatchEngine,
    default_tester,
    make_engine,
    per_code_model,
)
from repro.campaign.driver import (
    Campaign,
    CampaignResult,
    LabelDeduper,
    ScenarioSubmitter,
    scenario_child_seed,
    scenario_record,
    screen_scenario,
)

__all__ = [
    "AUTO_Q",
    "BatchEngine",
    "Campaign",
    "CampaignResult",
    "FLOWS",
    "LabelDeduper",
    "Scenario",
    "ScenarioSubmitter",
    "TESTER_CHOICES",
    "default_tester",
    "make_engine",
    "per_code_model",
    "scenario_child_seed",
    "scenario_record",
    "screen_scenario",
]
