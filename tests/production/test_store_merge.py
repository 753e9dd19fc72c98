"""One ledger from many reports: the edges and the order contract.

A campaign's ledger is a :class:`ResultStore` built over its scenarios'
reports ("parallel lot streams"); these tests pin the edges of building
one — no reports, one store's reports, duplicate scenario labels — and
the invariant every aggregate rendering depends on: the same reports in
any order produce the same tables.  The last block pins :func:`rollup`
on the adaptive-flow fields.
"""

import itertools

import pytest

from repro.campaign import Campaign, Scenario
from repro.production import ResultStore
from repro.production.store import rollup


def _reports_for(scenario, seed):
    """The reports of one single-lot campaign."""
    return Campaign(scenario, seed=seed).run().reports


@pytest.fixture(scope="module")
def lot_reports():
    """Three heterogeneous lot reports (methods, archs, retest)."""
    scenarios = [
        Scenario(n_devices=60, dnl_spec_lsb=0.5),
        Scenario(n_devices=60, method="histogram", dnl_spec_lsb=0.5,
                 architecture="sar"),
        Scenario(n_devices=60, q=2, transition_noise_lsb=0.05,
                 retest_attempts=1, dnl_spec_lsb=0.5),
    ]
    return [report for i, scenario in enumerate(scenarios)
            for report in _reports_for(scenario, seed=i)]


AGGREGATE_TABLES = ("method_table", "scenario_table", "campaign_table",
                    "station_table", "bin_table", "summary")


class TestMergeEdges:
    def test_merge_of_nothing_is_empty(self):
        merged = ResultStore([])
        assert len(merged) == 0
        assert merged.total_devices == 0
        assert merged.overall_accept_fraction == 0.0
        # Every rendering must still produce a (headers-only) table.
        for table in AGGREGATE_TABLES + ("lot_table", "metrics_table"):
            assert isinstance(getattr(merged, table)(), str)

    def test_merge_of_empty_stores_is_empty(self):
        stores = [ResultStore(), ResultStore()]
        assert len(ResultStore(report for store in stores
                               for report in store.reports)) == 0

    def test_single_store_merge_is_identity(self, lot_reports):
        store = ResultStore(lot_reports[:1])
        merged = ResultStore(store.reports)
        assert merged.reports == store.reports
        for table in AGGREGATE_TABLES + ("lot_table", "metrics_table"):
            assert getattr(merged, table)() == getattr(store, table)()

    def test_duplicate_scenario_labels_aggregate(self):
        scenario = Scenario(n_devices=60, label="dup")
        merged = ResultStore(_reports_for(scenario, seed=1)
                             + _reports_for(scenario, seed=2))
        assert merged.total_devices == 120
        # One aggregated, device-weighted row — not two rows racing for
        # the same key.
        for table in (merged.campaign_table(), merged.metrics_table()):
            assert table.count("dup") == 1
            assert " 120 " in table


class TestMergeOrderInvariance:
    def test_every_aggregate_table_is_order_invariant(self, lot_reports):
        reference = ResultStore(lot_reports)
        for permutation in itertools.permutations(lot_reports):
            merged = ResultStore(permutation)
            for table in AGGREGATE_TABLES:
                assert getattr(merged, table)() == \
                    getattr(reference, table)(), table

    def test_lot_table_rows_are_order_covariant_but_complete(
            self, lot_reports):
        """The per-lot ledger keeps arrival order (it is a log, not an
        aggregate); any order carries the same multiset of rows."""
        reference = sorted(ResultStore(lot_reports).lot_table().splitlines())
        for permutation in itertools.permutations(lot_reports):
            rows = ResultStore(permutation).lot_table().splitlines()
            assert sorted(rows) == reference

    def test_station_totals_have_canonical_order(self, lot_reports):
        # bist/histogram screening stations first (alphabetically), then
        # retest, then binning — independent of arrival order.
        for permutation in itertools.permutations(lot_reports):
            names = [s.name for s in
                     ResultStore(permutation).station_totals()]
            assert names == ["bist", "histogram", "retest", "binning"]


def _sequential_report(lot_id, n_devices, n_aborted, saved_seconds,
                       excursions=0):
    """A hand-built sprt-flow report, as `screen_lot(flow="sprt")` emits:
    the sequential station accounts only the non-aborted prefix."""
    from repro.production.line import LotScreeningReport, StationStats
    accounted = n_devices - n_aborted
    accepted = max(accounted - 1, 0)
    seconds = 0.001 * accounted
    return LotScreeningReport(
        lot_id=lot_id, n_devices=n_devices, n_accepted=accepted,
        n_recovered=0, bin_counts={"bin-1": accepted},
        stations=[
            StationStats("sequential", n_devices, accepted, seconds,
                         n_accounted=accounted),
            StationStats("binning", accepted, accepted, 0.0),
        ],
        tester_seconds=seconds, cost_per_device=1e-6, p_good=1.0,
        type_i=0.0, type_ii=0.0, samples_per_device=1000,
        flow="sprt", saved_samples=accounted * 10,
        saved_tester_seconds=saved_seconds, n_aborted=n_aborted,
        excursions=excursions)


class TestSequentialStationMerge:
    """station_totals over adaptive stations: the n_accounted contract."""

    def _totals(self, reports):
        store = ResultStore()
        for report in reports:
            store.add(report)
        return {s.name: s for s in store.station_totals()}

    def test_accounted_sums_across_lots(self):
        totals = self._totals([
            _sequential_report("L0", 100, 20, 0.5, excursions=1),
            _sequential_report("L1", 100, 0, 0.7),
        ])
        station = totals["sequential"]
        assert station.n_in == 200
        assert station.n_accounted == 180
        assert station.accounted == 180

    def test_merge_order_does_not_double_count(self):
        reports = [_sequential_report(f"L{i}", 100, 10 * i, 0.1)
                   for i in range(3)]
        for ordering in itertools.permutations(reports):
            station = self._totals(list(ordering))["sequential"]
            assert station.n_accounted == 270, \
                [r.lot_id for r in ordering]

    def test_fixed_stations_keep_none_accounted(self, lot_reports):
        for station in ResultStore(lot_reports).station_totals():
            assert station.n_accounted is None
            assert station.accounted == station.n_in

    def test_mixed_none_and_explicit_accounted(self):
        from repro.production.line import LotScreeningReport, StationStats
        plain = LotScreeningReport(
            lot_id="F0", n_devices=50, n_accepted=50, n_recovered=0,
            bin_counts={}, stations=[StationStats("sequential", 50, 50,
                                                  0.05)],
            tester_seconds=0.05, cost_per_device=1e-6, p_good=1.0,
            type_i=0.0, type_ii=0.0, samples_per_device=1000)
        totals = self._totals([plain,
                               _sequential_report("L0", 100, 40, 0.2)])
        station = totals["sequential"]
        # The None entry falls back to its full n_in (50), the adaptive
        # entry contributes its explicit prefix (60).
        assert station.n_accounted == 110

    def test_all_aborted_lot_merges_finite(self):
        report = _sequential_report("L0", 80, 80, 0.0, excursions=1)
        station = self._totals([report])["sequential"]
        assert station.n_accounted == 0
        assert station.tester_seconds == 0.0
        assert station.devices_per_hour == float("inf")
        assert report.n_accepted == 0


class TestRollupSequentialFields:
    def test_rows_sum_saved_seconds_and_aborts(self):
        reports = [
            _sequential_report("L0", 100, 20, 0.5, excursions=1),
            _sequential_report("L1", 100, 0, 0.7),
        ]
        totals = rollup(reports)
        assert totals["lots"] == 2
        assert totals["saved_tester_seconds"] == pytest.approx(1.2)
        assert totals["aborted"] == 20
        assert totals["excursions"] == 1
        assert totals["devices"] == 200
        assert "saved [s]" in ResultStore(reports).metrics_table()

    def test_empty_label_row_is_all_zero(self):
        totals = rollup([])
        assert totals["lots"] == 0
        assert totals["devices"] == 0
        assert totals["saved_tester_seconds"] == 0.0
        assert totals["aborted"] == 0
        assert totals["cost_per_device"] == 0.0

    def test_all_aborted_lot_row(self):
        totals = rollup([_sequential_report("L0", 80, 80, 0.0,
                                            excursions=1)])
        assert totals["accepted"] == 0
        assert totals["tester_seconds"] == 0.0
        assert totals["devices_per_hour"] == float("inf")
        assert totals["aborted"] == 80


class TestRollupSummationOrder:
    def test_float_totals_add_left_to_right(self):
        """Ten lots of 0.1 tester seconds total 0.9999999999999999 on
        every interpreter: Python 3.12's compensated ``sum()`` would give
        1.0, and the ledger would print another last digit there."""
        reports = [_sequential_report(f"L{i}", 100, 0, 0.1)
                   for i in range(10)]
        assert {r.tester_seconds for r in reports} == {0.1}
        totals = rollup(reports)
        assert totals["tester_seconds"] == 0.9999999999999999
        assert totals["saved_tester_seconds"] == 0.9999999999999999
