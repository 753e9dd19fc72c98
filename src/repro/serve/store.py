"""Rolling result aggregation for the streaming serve front door.

A batch :class:`~repro.campaign.driver.Campaign` builds its
:class:`~repro.production.store.ResultStore` ledger once, at the end.  A
long-running server needs the same ledger *while requests are still
arriving*: the :class:`RollingStore` keeps each completed request's
report, keyed by request ``seq``, as it lands and exposes

* :meth:`snapshot` — running totals (requests, devices, accepted,
  tester seconds) plus per-scenario running yield/escape/cost, attached
  to every ``result`` event.  Counts are **monotonic**: a completed
  request only ever adds, it is never revised or dropped.  The totals
  are kept as they land, one accumulator for the whole stream and one
  per scenario label, so a snapshot costs the same at any request
  count.
* :meth:`merged` / :meth:`ledger` — the full floor ledger, with the
  reports in request-``seq`` order.  Arrival order (not completion
  order) is what makes the final ledger byte-identical to the batch
  campaign of the same request stream, no matter how the pool
  interleaved the actual work.

Both add reports through
:class:`~repro.production.store.RunningTotals`, the one accumulator
every ledger view shares, so a snapshot reads what
:func:`~repro.production.store.rollup` of the completed requests reads.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.production.line import LotScreeningReport
from repro.production.store import ResultStore, RunningTotals

__all__ = ["RollingStore"]

#: Rollup fields of the running totals (after ``requests``).
_TOTAL_FIELDS = ("devices", "accepted", "accept_fraction", "tester_seconds",
                 "saved_tester_seconds", "excursions", "aborted")

#: Rollup fields of the per-scenario block (after ``label``).
_SCENARIO_FIELDS = ("lots", "devices", "accepted", "accept_fraction",
                    "true_yield", "type_i", "type_ii", "tester_seconds",
                    "cost_per_device")


class RollingStore:
    """Accumulate completed serve requests into one rolling ledger."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reports: Dict[int, LotScreeningReport] = {}
        self._total = RunningTotals()
        self._by_label: Dict[str, RunningTotals] = {}

    def add(self, seq: int, report: LotScreeningReport) -> None:
        """Record one completed request (its seq must be new)."""
        with self._lock:
            if seq in self._reports:
                raise ValueError(f"request seq {seq} already recorded")
            self._reports[seq] = report
            self._total.add(report)
            self._by_label.setdefault(report.lot_id,
                                      RunningTotals()).add(report)

    def __len__(self) -> int:
        with self._lock:
            return len(self._reports)

    # ------------------------------------------------------------------ #
    # Rolling views
    # ------------------------------------------------------------------ #

    def snapshot(self, label: Optional[str] = None) -> Dict[str, object]:
        """Monotonic running totals over every completed request.

        Sums run in completion order.  With ``label``, a ``scenario``
        block with that ledger row's running device-weighted
        yield/escape/cost is attached — the per-scenario rolling view a
        ``result`` event carries for its own scenario (the server draws
        each request's lot under its label, so the row is the reports of
        that ``lot_id``; a label with no completed request reads zero).
        """
        with self._lock:
            totals = self._total.as_dict()
            row = None
            if label is not None:
                row = self._by_label.get(label, RunningTotals()).as_dict()
        out: Dict[str, object] = {"requests": totals["lots"]}
        out.update((name, totals[name]) for name in _TOTAL_FIELDS)
        if row is not None:
            out["scenario"] = {"label": label, **{
                name: row[name] for name in _SCENARIO_FIELDS}}
        return out

    # ------------------------------------------------------------------ #
    # The ledger
    # ------------------------------------------------------------------ #

    def merged(self) -> ResultStore:
        """The ledger of every completed request, in request-seq order."""
        with self._lock:
            return ResultStore(self._reports[seq]
                               for seq in sorted(self._reports))

    def campaign_table(self) -> str:
        """The rolling campaign pivot (one row per scenario label)."""
        return self.merged().campaign_table()

    def ledger(self) -> str:
        """The full floor ledger: campaign pivot plus the summary block.

        Byte-identical to ``campaign_table() + summary()`` of the batch
        :meth:`Campaign.run` store for the same request stream — the
        string the kill-and-resume convergence tests diff.
        """
        merged = self.merged()
        return (merged.campaign_table() + "\n\n" + merged.summary()
                + "\n")
