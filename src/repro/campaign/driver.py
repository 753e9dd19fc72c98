"""Campaign driver: fan a scenario grid over the scale-out layer.

A :class:`Campaign` takes a list of
:class:`~repro.campaign.scenario.Scenario` objects (usually from
:meth:`Scenario.grid`), screens each one through a
:class:`~repro.production.line.ScreeningLine`, and keeps the reports, in
scenario order, in one :class:`~repro.production.store.ResultStore`
ledger.

Determinism is inherited end to end: scenario ``i`` screens under its own
seed (the scenario's explicit ``seed``, or child ``i`` of the campaign's
root :class:`numpy.random.SeedSequence` — a pure function of
``(root seed, i)``, never of execution order), every insertion inside
:meth:`ScreeningLine.screen_lot` derives its own grandchild seed from it,
and every device of an insertion draws its own keyed noise
(:class:`repro.core.noise.DeviceNoise`).  An
:class:`~repro.production.execution.ExecutionPlan` shards every
scenario's device axis over worker processes, and the campaign report is
**byte-identical for any plan** — ``Campaign.run()`` prints what
``plan=ExecutionPlan(workers=8)`` prints.
"""

from __future__ import annotations

import csv
import json
import threading
from concurrent.futures import (FIRST_EXCEPTION, Future, ThreadPoolExecutor,
                                wait)
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.campaign.scenario import Scenario
from repro.production.execution import (ExecutionPlan, abort_scope,
                                        journal_scope)
from repro.production.line import LotScreeningReport, ScreeningLine
from repro.production.lot import Lot, Wafer
from repro.production.pool import (PoolBrokenError, dispatch_pool,
                                   share_wafer, shared_pool)
from repro.production.store import ResultStore
from repro.telemetry.core import current_telemetry
from repro.telemetry.log import get_logger

__all__ = [
    "Campaign",
    "CampaignResult",
    "LabelDeduper",
    "ScenarioSubmitter",
    "scenario_child_seed",
    "scenario_record",
    "screen_scenario",
]

_log = get_logger("campaign")


def scenario_child_seed(root_seed: int, index: int) -> int:
    """Deterministic seed of scenario ``index`` under a campaign root seed.

    Child ``index`` of ``SeedSequence(root_seed)``, derived statelessly by
    spawn key — a pure function of ``(root_seed, index)``, so re-ordering,
    slicing or re-running a campaign cannot change any scenario's stream.
    """
    root = np.random.SeedSequence(root_seed)
    child = np.random.SeedSequence(entropy=root.entropy,
                                   spawn_key=root.spawn_key + (index,))
    return int(child.generate_state(1)[0])


class LabelDeduper:
    """Incrementally de-duplicate ledger labels, campaign-style.

    A duplicate base label (two scenarios differing only in axes the
    canonical name does not show, e.g. noise) gets an ``" [k]"``
    occurrence suffix so the ledger keeps the rows apart; a suffixed
    candidate that collides with an explicit label skips to the next free
    suffix, so distinct scenarios never share a row.  Incremental on
    purpose: :meth:`Campaign.labels` claims a whole scenario list up
    front, while the streaming service claims one label per request as
    requests arrive — both walks produce identical labels for identical
    base sequences.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._used: set = set()

    def claim(self, base: str) -> str:
        """The resolved label for the next occurrence of ``base``."""
        n = self._counts.get(base, 0)
        while True:
            n += 1
            candidate = base if n == 1 else f"{base} [{n}]"
            if candidate not in self._used:
                break
        self._counts[base] = n
        self._used.add(candidate)
        return candidate


def screen_scenario(label: str, seed: int, line: ScreeningLine, lot: Lot,
                    plan: Optional[ExecutionPlan] = None,
                    parent_span_id: Optional[int] = None
                    ) -> LotScreeningReport:
    """Screen one scenario and return its report.

    The single screening step both drivers share: :class:`Campaign` runs
    it once per scenario (inline or on a scenario thread) and the
    streaming service runs it once per request.  ``parent_span_id``
    re-parents the ``campaign.scenario`` span (under ``campaign.run`` or
    a ``serve.request`` span) when the calling thread's span stack is
    empty.
    """
    t = current_telemetry()
    with t.under_span(parent_span_id):
        with t.span("campaign.scenario", label=label, seed=seed):
            return line.screen_lot(lot, rng=seed, plan=plan)


def scenario_record(scenario: Scenario, label: str, seed: int,
                    report: LotScreeningReport) -> Dict[str, object]:
    """One plain-dict export record for a screened scenario.

    The shared row shape of :meth:`CampaignResult.records` (JSON/CSV
    export) and the streaming service's per-request result events.
    """
    return {
        "label": label,
        "architecture": report.architecture,
        "method": report.method,
        "mode": report.mode,
        "q": report.q,
        "n_bits": scenario.n_bits,
        "seed": seed,
        "devices": report.n_devices,
        "accepted": report.n_accepted,
        "accept_fraction": report.accept_fraction,
        "true_yield": report.p_good,
        "type_i": report.type_i,
        "type_ii": report.type_ii,
        "samples_per_device": report.samples_per_device,
        "tester_seconds": report.tester_seconds,
        "devices_per_hour": report.devices_per_hour,
        "cost_per_device": report.cost_per_device,
        "flow": report.flow,
        "excursion": scenario.excursion,
        "saved_samples": report.saved_samples,
        "saved_tester_seconds": report.saved_tester_seconds,
        "aborted": report.n_aborted,
        "excursions": report.excursions,
    }


class ScenarioSubmitter:
    """Feed concurrent scenario screenings through one shared worker pool.

    The reusable submission API underneath both the interleaved
    :meth:`Campaign.run` path and ``repro serve``: entering the context
    acquires the persistent pool the plan's dispatches run on
    (:func:`~repro.production.pool.dispatch_pool`), warms it *before*
    any submission thread exists (so workers fork from a thread-free
    process), installs it as the ambient pool, and opens a thread bench.
    Each :meth:`submit` then screens one scenario on its own thread, so
    every in-flight screening's shards drain through the pool's single
    work queue — in-flight campaign scenarios and in-flight serve
    requests interleave by exactly the same mechanism.

    Parameters
    ----------
    plan:
        The execution plan submissions screen under by default (a
        per-submission override is accepted).  ``workers=1`` plans skip
        pool acquisition entirely and screen serially on the submission
        threads.
    max_threads:
        Concurrent screenings in flight; further submissions queue.
    pool_retries:
        How many times a submission that hits a
        :class:`~repro.production.pool.PoolBrokenError` (a worker died;
        the broken pool was evicted) is re-run against a rebuilt pool
        before the error propagates.  ``0`` — the campaign default —
        propagates immediately.  With a journal installed the re-run
        replays every journaled shard, so only genuinely unfinished work
        recomputes.
    """

    def __init__(self, plan: ExecutionPlan, *, max_threads: int = 1,
                 pool_retries: int = 0) -> None:
        if max_threads < 1:
            raise ValueError("max_threads must be >= 1")
        if pool_retries < 0:
            raise ValueError("pool_retries must be >= 0")
        self.plan = plan
        self.max_threads = int(max_threads)
        self.pool_retries = int(pool_retries)
        self._abort = threading.Event()
        self._threads: Optional[ThreadPoolExecutor] = None
        self._shared = None

    # -- context management -------------------------------------------- #

    def __enter__(self) -> "ScenarioSubmitter":
        if self.plan.workers > 1:
            pool = dispatch_pool(self.plan.workers)
            self._shared = shared_pool(pool=pool)
            self._shared.__enter__()
            try:
                pool.warm_up()
            except BaseException:
                self._shared.__exit__(None, None, None)
                self._shared = None
                raise
        self._threads = ThreadPoolExecutor(
            max_workers=self.max_threads,
            thread_name_prefix="campaign-scenario")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if self._threads is not None:
                self._threads.shutdown(wait=True)
        finally:
            self._threads = None
            if self._shared is not None:
                self._shared.__exit__(None, None, None)
                self._shared = None

    # -- submission ----------------------------------------------------- #

    def submit(self, label: str, seed: int, line: ScreeningLine, lot: Lot,
               *, plan: Optional[ExecutionPlan] = None,
               parent_span_id: Optional[int] = None,
               journal: Any = None) -> "Future":
        """Schedule one scenario screening; returns its future.

        The future resolves to the report of :func:`screen_scenario`,
        raises :class:`~repro.production.execution.ExecutionAborted` if
        :meth:`abort` fired first, and — past ``pool_retries`` rebuild
        attempts — :class:`~repro.production.pool.PoolBrokenError`.
        """
        if self._threads is None:
            raise RuntimeError(
                "ScenarioSubmitter.submit outside the context block")
        return self._threads.submit(
            self._run, label, seed, line, lot,
            plan if plan is not None else self.plan,
            parent_span_id, journal)

    def _run(self, label: str, seed: int, line: ScreeningLine, lot: Lot,
             plan: ExecutionPlan, parent_span_id: Optional[int],
             journal: Any) -> LotScreeningReport:
        retries = self.pool_retries
        while True:
            try:
                with abort_scope(self._abort), journal_scope(journal):
                    return screen_scenario(label, seed, line, lot,
                                           plan=plan,
                                           parent_span_id=parent_span_id)
            except PoolBrokenError:
                if retries <= 0 or self._abort.is_set():
                    raise
                retries -= 1
                t = current_telemetry()
                if t.enabled:
                    t.count("pool.rebuilt")
                _log.warning("%s: worker pool broke mid-screen; "
                             "rebuilding and retrying", label)
                if journal is not None:
                    journal.begin_attempt()

    # -- cancellation --------------------------------------------------- #

    def abort(self) -> None:
        """Signal every in-flight screening to stop submitting shards.

        Cooperative: running threads observe the event at their next
        shard batch and raise
        :class:`~repro.production.execution.ExecutionAborted`; queued
        submissions should additionally be ``cancel()``-ed by the caller.
        """
        self._abort.set()

    @property
    def aborted(self) -> bool:
        return self._abort.is_set()


@dataclass
class CampaignResult:
    """Everything one campaign run produced.

    Attributes
    ----------
    scenarios, labels, seeds:
        The scenarios that ran, their resolved (de-duplicated) labels, and
        the seed each one screened under.
    reports:
        One :class:`~repro.production.line.LotScreeningReport` per
        scenario, in scenario order.
    store:
        The :class:`~repro.production.store.ResultStore` ledger of those
        reports.
    """

    scenarios: List[Scenario]
    labels: List[str]
    seeds: List[int]
    reports: List[LotScreeningReport]
    store: ResultStore = field(default_factory=ResultStore)

    def table(self) -> str:
        """The per-scenario pivot table (yield/escapes/time/cost)."""
        return self.store.campaign_table()

    def metrics_table(self) -> str:
        """The operational metrics pivot next to :meth:`table` (empty
        when nothing was screened)."""
        if not self.store:
            return ""
        return self.store.metrics_table()

    def records(self) -> List[Dict[str, object]]:
        """One plain-dict record per scenario, for JSON/CSV export."""
        return [scenario_record(scenario, label, seed, report)
                for scenario, label, seed, report in zip(
                    self.scenarios, self.labels, self.seeds, self.reports)]

    def to_json(self, indent: int = 2) -> str:
        """The campaign records as a JSON array."""
        return json.dumps(self.records(), indent=indent)

    def write_csv(self, path: str) -> int:
        """Write the campaign records to ``path`` as CSV; returns the
        number of data rows written."""
        records = self.records()
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(records[0])
                                    if records else ["label"])
            writer.writeheader()
            writer.writerows(records)
        return len(records)


class Campaign:
    """Screen a list/grid of scenarios into one floor ledger.

    Parameters
    ----------
    scenarios:
        The scenarios to screen (a single scenario is accepted too).
        Scenarios with ``q="auto"`` are rejected — a screening line needs
        a concrete ``q`` for its tester economics; resolve it first.
    seed:
        Campaign root seed.  A scenario without its own ``seed`` screens
        under :func:`scenario_child_seed` of this root and its index; in
        shared-wafer mode the root also seeds the one wafer draw.
    shared_wafer:
        Screen every scenario on **one shared wafer draw** instead of
        per-scenario lots — the paper's comparison setting, where
        yield/escape/cost differences are attributable to the test method
        alone.  All scenarios must then share one wafer spec (same
        architecture, resolution, sigma, device count).
    shared_wafer_id:
        Identifier of the shared wafer (default ``"SHARED-<seed>"``).
    """

    def __init__(self, scenarios: Union[Scenario, Sequence[Scenario]], *,
                 seed: int = 2026,
                 shared_wafer: bool = False,
                 shared_wafer_id: Optional[str] = None) -> None:
        if isinstance(scenarios, Scenario):
            scenarios = [scenarios]
        self.scenarios = list(scenarios)
        if not self.scenarios:
            raise ValueError("a campaign needs at least one scenario")
        self.seed = int(seed)
        self.shared_wafer = bool(shared_wafer)
        self.shared_wafer_id = shared_wafer_id
        if self.shared_wafer:
            spec = self.scenarios[0].wafer_spec()
            for scenario in self.scenarios[1:]:
                if scenario.wafer_spec() != spec:
                    raise ValueError(
                        "shared-wafer campaigns need one wafer spec; "
                        f"{scenario.resolved_label!r} differs from "
                        f"{self.scenarios[0].resolved_label!r}")
        self._lines: Optional[List[ScreeningLine]] = None

    # ------------------------------------------------------------------ #
    # Derived per-scenario plumbing
    # ------------------------------------------------------------------ #

    def labels(self) -> List[str]:
        """Resolved per-scenario labels, de-duplicated deterministically.

        A duplicate label (two scenarios differing only in axes the
        canonical name does not show, e.g. noise) gets an ``" [k]"``
        occurrence suffix so the ledger keeps the rows apart; a
        suffixed candidate that collides with an explicit label skips to
        the next free suffix, so distinct scenarios never share a row.
        """
        deduper = LabelDeduper()
        return [deduper.claim(scenario.resolved_label)
                for scenario in self.scenarios]

    def seeds(self) -> List[int]:
        """The seed each scenario screens under, in scenario order."""
        return [scenario.seed if scenario.seed is not None
                else scenario_child_seed(self.seed, i)
                for i, scenario in enumerate(self.scenarios)]

    def lines(self) -> List[ScreeningLine]:
        """One screening line per scenario (built once, reused by run)."""
        if self._lines is None:
            self._lines = [ScreeningLine(scenario)
                           for scenario in self.scenarios]
        return self._lines

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run_interleaved(self, labels: List[str], seeds: List[int],
                         lines: List[ScreeningLine], lots: List[Lot],
                         plan: ExecutionPlan,
                         parent_span_id: Optional[int]
                         ) -> List[LotScreeningReport]:
        """Drain every scenario's shards through one shared worker pool.

        One :class:`ScenarioSubmitter` thread per scenario submits its
        shards; the pool (the ambient :func:`shared_pool` one if
        installed, else the warm module default) serves them all from a
        single work queue.  The pool is warmed *before* the scenario
        threads start so every worker is forked from a moment when this
        process has no extra threads, and futures are consumed in
        scenario order so logs, reports and the ledger are
        byte-identical to the sequential path.

        Failure is prompt: the first scenario that raises aborts the
        submitter (running siblings stop at their next shard batch and
        raise :class:`~repro.production.execution.ExecutionAborted`),
        outstanding futures are cancelled, and the original error
        propagates — one bad scenario no longer lets its siblings screen
        to completion first.
        """
        with ScenarioSubmitter(plan,
                               max_threads=len(self.scenarios)) as submitter:
            futures = [
                submitter.submit(label, seed, line, lot,
                                 parent_span_id=parent_span_id)
                for label, seed, line, lot in zip(labels, seeds,
                                                  lines, lots)]
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            failed = next((f for f in futures
                           if f.done() and not f.cancelled()
                           and f.exception() is not None), None)
            if failed is not None:
                submitter.abort()
                for future in not_done:
                    future.cancel()
                wait(not_done)
                failed.result()  # re-raises the scenario's error
            return [future.result() for future in futures]

    def run(self, plan: Optional[ExecutionPlan] = None) -> CampaignResult:
        """Screen every scenario into one ledger.

        Each scenario's report joins the result's
        :class:`~repro.production.store.ResultStore` in scenario order.
        Every scenario's device axis runs under ``plan`` (``None``:
        ``ExecutionPlan()``), and the ledger is byte-identical for any
        plan.

        With a multi-worker plan, a multi-scenario campaign
        **interleaves**: all scenarios' shards feed one persistent
        :class:`~repro.production.pool.WorkerPool` (the innermost open
        :func:`~repro.production.pool.shared_pool` pool, else the module
        default), so no worker idles at a scenario boundary.  With one
        worker or one scenario, the scenarios screen one after another.
        Interleaving is purely a scheduling change — each device's noise
        is keyed by its scenario seed, insertion and row, never by
        dispatch order, and reports are collected in scenario order, so
        the result is byte-identical to the sequential path.  In
        shared-wafer mode the one wafer is re-homed into shared memory
        for the duration of the run, so every scenario's every shard
        dispatches zero-copy.
        """
        if plan is None:
            plan = ExecutionPlan()
        labels = self.labels()
        seeds = self.seeds()
        lines = self.lines()
        wafer = None
        if self.shared_wafer:
            wafer_id = (self.shared_wafer_id if self.shared_wafer_id
                        is not None else f"SHARED-{self.seed}")
            wafer = Wafer.draw(self.scenarios[0].wafer_spec(),
                               rng=self.seed, wafer_id=wafer_id)
        interleave = plan.workers > 1 and len(self.scenarios) > 1
        t = current_telemetry()
        with t.span("campaign.run", scenarios=len(self.scenarios),
                    interleaved=interleave) as campaign_span:
            shared_buffer = None
            if interleave and wafer is not None:
                shared_buffer, wafer = share_wafer(wafer)
            try:
                lots = []
                for scenario, label, seed in zip(self.scenarios, labels,
                                                 seeds):
                    if wafer is not None:
                        lots.append(Lot([wafer], lot_id=label))
                    else:
                        lots.append(scenario.draw_lot(seed=seed,
                                                      lot_id=label))
                if interleave:
                    reports = self._run_interleaved(
                        labels, seeds, lines, lots, plan,
                        campaign_span.span_id)
                else:
                    reports = [
                        screen_scenario(label, seed, line, lot, plan=plan)
                        for label, seed, line, lot in zip(
                            labels, seeds, lines, lots)]
            finally:
                if shared_buffer is not None:
                    shared_buffer.close()
            for index, (label, report) in enumerate(zip(labels, reports)):
                _log.info("scenario %d/%d %s: %d/%d accepted",
                          index + 1, len(self.scenarios), label,
                          report.n_accepted, report.n_devices)
        if t.enabled:
            t.count("campaign.scenarios", len(self.scenarios))
            t.count("campaign.devices",
                    sum(r.n_devices for r in reports))
            t.count("campaign.accepted",
                    sum(r.n_accepted for r in reports))
        return CampaignResult(scenarios=list(self.scenarios), labels=labels,
                              seeds=seeds, reports=reports,
                              store=ResultStore(reports))
