"""Result store: per-lot screening statistics and floor-level reporting.

The :class:`ResultStore` is the production line's ledger: a list of
:class:`~repro.production.line.LotScreeningReport` objects, one per
screened lot.  Every per-group figure — the store totals, the method,
scenario, campaign and metrics pivots, and the streaming server's
rolling snapshots — comes from one accumulator, :class:`RunningTotals`
(:func:`rollup` folds a group of reports through it), and the store
renders the pivots as the plain-text tables the rest of the
reproduction uses (:mod:`repro.reporting.tables`), so a multi-lot
Monte-Carlo campaign produces one readable floor report.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence

from repro.production.line import LotScreeningReport, StationStats
from repro.reporting.tables import format_table

__all__ = ["ResultStore", "RunningTotals", "rollup"]


class RunningTotals:
    """Running totals of a group of lot reports, added in arrival order.

    Every sum starts at the integer 0 and adds one report at a time, so
    a float total is ``0 + v0 + v1 + ...`` left to right on every Python
    (the builtin ``sum()`` compensates float sums from Python 3.12 on and
    would move a ledger's last digit).  Adding is O(1), so a group that
    grows one report at a time keeps its totals current without re-adding
    the reports before it.
    """

    __slots__ = ("lots", "devices", "accepted", "tester_seconds",
                 "saved_tester_seconds", "excursions", "aborted",
                 "_good", "_type_i", "_type_ii", "_cost")

    def __init__(self) -> None:
        self.lots = 0
        self.devices = 0
        self.accepted = 0
        self.tester_seconds = 0
        self.saved_tester_seconds = 0
        self.excursions = 0
        self.aborted = 0
        # Device-weighted sums of the per-lot rates.
        self._good = 0
        self._type_i = 0
        self._type_ii = 0
        self._cost = 0

    def add(self, report: LotScreeningReport) -> None:
        """Add one lot's report to the totals."""
        n = report.n_devices
        self.lots += 1
        self.devices += n
        self.accepted += report.n_accepted
        self.tester_seconds += report.tester_seconds
        self.saved_tester_seconds += report.saved_tester_seconds
        self.excursions += report.excursions
        self.aborted += report.n_aborted
        self._good += report.p_good * n
        self._type_i += report.type_i * n
        self._type_ii += report.type_ii * n
        self._cost += report.cost_per_device * n

    def as_dict(self) -> Dict[str, Any]:
        """The totals as the :func:`rollup` dict."""
        devices = self.devices
        seconds = self.tester_seconds

        def weighted(total: float) -> float:
            return total / devices if devices else 0.0

        return {
            "lots": self.lots,
            "devices": devices,
            "accepted": self.accepted,
            "accept_fraction": self.accepted / devices if devices else 0.0,
            "true_yield": weighted(self._good),
            "type_i": weighted(self._type_i),
            "type_ii": weighted(self._type_ii),
            "tester_seconds": seconds,
            "devices_per_hour": (devices / seconds * 3600.0 if seconds > 0
                                 else float("inf")),
            "cost_per_device": weighted(self._cost),
            "saved_tester_seconds": self.saved_tester_seconds,
            "excursions": self.excursions,
            "aborted": self.aborted,
        }


def rollup(reports: Sequence[LotScreeningReport]) -> Dict[str, Any]:
    """Totals of a group of lot reports, summed left to right in order.

    Counts, tester seconds, saved seconds, excursions and aborted dies
    are plain sums; accept fraction and devices per tester-hour follow
    from the summed counts; true yield, type I/II and cost per device are
    weighted by each lot's devices.  An empty group reads zero (and
    infinite devices per hour, as a lot without tester time does).
    """
    totals = RunningTotals()
    for report in reports:
        totals.add(report)
    return totals.as_dict()


def _method_key(report: LotScreeningReport) -> str:
    # Full and partial BIST are different test plans: separate rows.
    if report.method == "bist" and report.mode == "partial":
        return f"partial bist q={report.q}"
    return report.method


class ResultStore:
    """The floor ledger: screening reports in arrival order."""

    def __init__(self, reports: Iterable[LotScreeningReport] = ()) -> None:
        self._reports: List[LotScreeningReport] = list(reports)

    def add(self, report: LotScreeningReport) -> None:
        """Append one lot's screening report."""
        self._reports.append(report)

    def __len__(self) -> int:
        return len(self._reports)

    @property
    def reports(self) -> List[LotScreeningReport]:
        """The stored reports, in arrival order."""
        return list(self._reports)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    @property
    def total_devices(self) -> int:
        """Dies screened across all lots."""
        return rollup(self._reports)["devices"]

    @property
    def total_accepted(self) -> int:
        """Dies finally accepted across all lots."""
        return rollup(self._reports)["accepted"]

    @property
    def total_tester_seconds(self) -> float:
        """Tester time consumed across all lots."""
        return rollup(self._reports)["tester_seconds"]

    @property
    def overall_accept_fraction(self) -> float:
        """Accept fraction over every die screened so far."""
        return rollup(self._reports)["accept_fraction"]

    @property
    def overall_devices_per_hour(self) -> float:
        """Floor throughput in devices per tester-hour."""
        return rollup(self._reports)["devices_per_hour"]

    def bin_totals(self) -> Dict[str, int]:
        """Accepted-die counts per quality bin, summed over lots."""
        totals: Dict[str, int] = {}
        for report in self._reports:
            for name, count in report.bin_counts.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def station_totals(self) -> List[StationStats]:
        """Per-station totals (devices in/accepted, tester time) over lots.

        Returned in the line's canonical order — screening stations (by
        name), then retest, then binning — independent of the order the
        lots were added in.
        """
        merged: Dict[str, StationStats] = {}
        for report in self._reports:
            for station in report.stations:
                agg = merged.get(station.name)
                if agg is None:
                    merged[station.name] = StationStats(
                        station.name, station.n_in, station.n_accepted,
                        station.tester_seconds,
                        n_accounted=station.n_accounted)
                else:
                    if (agg.n_accounted is not None
                            or station.n_accounted is not None):
                        # Resolve through the fallback BEFORE touching
                        # n_in: ``accounted`` defaults to the current
                        # n_in, so summing after the increment would
                        # double-count the incoming lot.
                        agg.n_accounted = agg.accounted + station.accounted
                    agg.n_in += station.n_in
                    agg.n_accepted += station.n_accepted
                    agg.tester_seconds += station.tester_seconds
        rank = {"retest": 1, "binning": 2}
        return [merged[name] for name in
                sorted(merged, key=lambda name: (rank.get(name, 0), name))]

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def lot_table(self) -> str:
        """One row per lot: method, scenario, yield, error rates, cost."""
        rows = []
        for r in self._reports:
            rows.append([r.lot_id, r.method, r.scenario, r.n_devices,
                         r.n_accepted, r.accept_fraction, r.type_i,
                         r.type_ii, r.tester_seconds, r.devices_per_hour,
                         r.cost_per_device])
        return format_table(
            ["lot", "method", "scenario", "devices", "accepted",
             "accept frac", "type I", "type II", "tester [s]", "devices/h",
             "cost/device"],
            rows, title="Screening results per lot")

    def _groups(self, key: Callable[[LotScreeningReport], str],
                ordered=sorted):
        """``(name, reports, rollup)`` per group of ``key``; ``ordered``
        orders the names (``sorted``, or ``list`` for first appearance)."""
        groups: Dict[str, List[LotScreeningReport]] = {}
        for report in self._reports:
            groups.setdefault(key(report), []).append(report)
        return [(name, groups[name], rollup(groups[name]))
                for name in ordered(groups)]

    def method_table(self) -> str:
        """One row per screening method, aggregated over its lots.

        The BIST-vs-conventional trade-off table: yield, escape rates,
        tester time and cost per device for every method that screened at
        least one lot — meaningful when the compared lots share one wafer
        draw (as ``repro compare`` arranges).  Full and partial BIST lots
        are separate rows (different test plans), keyed by the partition.
        """
        fields = ("devices", "accepted", "accept_fraction", "type_i",
                  "type_ii", "tester_seconds", "devices_per_hour",
                  "cost_per_device")
        rows = [[name] + [totals[f] for f in fields]
                for name, _, totals in self._groups(_method_key)]
        return format_table(
            ["method", "devices", "accepted", "accept frac", "type I",
             "type II", "tester [s]", "devices/h", "cost/device"],
            rows, title="Screening methods compared")

    def scenario_table(self) -> str:
        """One row per (architecture, method/mode) scenario over its lots.

        Finer-grained than :meth:`method_table`: lots screening different
        architectures under the same method aggregate into separate rows,
        so a multi-architecture campaign reads as one table.
        """
        fields = ("lots", "devices", "accepted", "accept_fraction",
                  "type_i", "type_ii", "tester_seconds")
        rows = [[name] + [totals[f] for f in fields]
                for name, _, totals in self._groups(lambda r: r.scenario)]
        return format_table(
            ["scenario", "lots", "devices", "accepted", "accept frac",
             "type I", "type II", "tester [s]"],
            rows, title="Screening scenarios compared")

    def campaign_table(self) -> str:
        """The campaign pivot: one row per scenario label.

        The table a :class:`~repro.campaign.driver.Campaign` reports —
        yield, escapes, tester time and cost per scenario, keyed by the
        lot identifier (which the campaign driver sets to the scenario
        label).  Lots sharing a label aggregate into one device-weighted
        row; rows are sorted by label, so the table does not depend on
        the order the lots arrived in.
        """
        fields = ("devices", "accepted", "accept_fraction", "true_yield",
                  "type_i", "type_ii", "tester_seconds", "devices_per_hour",
                  "cost_per_device")
        rows = [[label, reports[0].scenario] + [totals[f] for f in fields]
                for label, reports, totals in
                self._groups(lambda r: r.lot_id)]
        return format_table(
            ["scenario", "tag", "devices", "accepted", "accept frac",
             "true yield", "type I", "type II", "tester [s]", "devices/h",
             "cost/device"],
            rows, title="Campaign results per scenario")

    def metrics_table(self) -> str:
        """The operator pivot: one row per scenario label, in the order
        the labels first arrived.

        Throughput, escapes, saved tester time and cost next to
        :meth:`campaign_table`, built from the reports alone (no clocks),
        so it is safe to print in byte-diffed output.
        """
        fields = ("lots", "devices", "accepted", "type_i", "type_ii",
                  "tester_seconds", "saved_tester_seconds",
                  "devices_per_hour", "cost_per_device")
        rows = [[label] + [totals[f] for f in fields]
                for label, _, totals in
                self._groups(lambda r: r.lot_id, ordered=list)]
        return format_table(
            ["scenario", "lots", "devices", "accepted", "type I",
             "type II", "tester [s]", "saved [s]", "devices/h",
             "cost/device"],
            rows, title="Campaign metrics per scenario")

    def station_table(self) -> str:
        """One row per station, aggregated over every screened lot."""
        rows = []
        for s in self.station_totals():
            rows.append([s.name, s.n_in, s.n_accepted, s.yield_fraction,
                         s.tester_seconds, s.devices_per_hour])
        return format_table(
            ["station", "in", "accepted", "yield", "tester [s]",
             "devices/h"],
            rows, title="Station totals")

    def bin_table(self) -> str:
        """Accepted dies per quality bin (tightest bin first)."""

        def bin_order(name: str):
            # "bin-10" must follow "bin-9", not "bin-1": sort on the
            # numeric suffix when there is one.
            prefix, _, suffix = name.rpartition("-")
            if suffix.isdigit():
                return (prefix, int(suffix))
            return (name, 0)

        totals = self.bin_totals()
        accepted = max(self.total_accepted, 1)
        rows = [[name, count, count / accepted]
                for name, count in sorted(totals.items(),
                                          key=lambda kv: bin_order(kv[0]))]
        return format_table(["bin", "devices", "share of accepted"], rows,
                            title="Quality bins")

    def total_chips(self) -> int:
        """ICs screened across lots that ran with chip grouping."""
        return sum(r.n_chips for r in self._reports if r.n_chips is not None)

    def total_chips_passed(self) -> int:
        """ICs fully passing across lots that ran with chip grouping."""
        return sum(r.n_chips_passed for r in self._reports
                   if r.n_chips_passed is not None)

    def summary(self) -> str:
        """Multi-line overview of the whole screening campaign."""
        totals = rollup(self._reports)
        lines = [
            f"lots screened: {totals['lots']}",
            f"devices screened: {totals['devices']}",
            f"devices accepted: {totals['accepted']} "
            f"({totals['accept_fraction']:.1%})",
            f"tester time: {totals['tester_seconds']:.3f} s "
            f"({totals['devices_per_hour']:.0f} devices/hour)",
        ]
        chips = self.total_chips()
        if chips:
            passed = self.total_chips_passed()
            lines.append(f"chips screened: {chips}, fully passing: "
                         f"{passed} ({passed / chips:.1%})")
        return "\n".join(lines)
