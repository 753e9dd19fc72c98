"""Tests for the screening line, its stations and the result store."""

import numpy as np
import pytest

from repro.campaign import Scenario
from repro.production import (
    Lot,
    ResultStore,
    ScreeningLine,
    Wafer,
    WaferSpec,
)


@pytest.fixture
def small_lot():
    return Lot.draw(WaferSpec(n_devices=400, sigma_code_width_lsb=0.21),
                    n_wafers=2, seed=3, lot_id="LOT-T")


class TestScreeningLine:
    def test_deterministic_screen(self, small_lot):
        line = ScreeningLine(Scenario(counter_bits=4, dnl_spec_lsb=0.5))
        report = line.screen_lot(small_lot, rng=0)
        assert report.lot_id == "LOT-T"
        assert report.n_devices == 800
        assert 0 < report.n_accepted < 800
        assert report.n_accepted + report.n_rejected == 800
        assert report.accept_fraction == pytest.approx(
            report.n_accepted / 800)
        # Station chain: bist then binning (no retest configured).
        names = [s.name for s in report.stations]
        assert names == ["bist", "binning"]
        assert sum(report.bin_counts.values()) == report.n_accepted
        assert report.tester_seconds > 0
        assert report.devices_per_hour > 0
        assert report.cost_per_device > 0

    def test_noise_free_retest_recovers_nothing(self, small_lot):
        line = ScreeningLine(Scenario(counter_bits=4, dnl_spec_lsb=0.5,
                                      retest_attempts=2))
        report = line.screen_lot(small_lot, rng=0)
        # The BIST is deterministic without noise: retest changes nothing.
        assert report.n_recovered == 0
        retest = [s for s in report.stations if s.name == "retest"][0]
        assert retest.n_accepted == 0
        assert retest.n_in > 0

    def test_noisy_retest_recovers_devices(self, small_lot):
        scenario = Scenario(transition_noise_lsb=0.02, deglitch_depth=2)
        baseline = ScreeningLine(scenario).screen_lot(small_lot, rng=1)
        line = ScreeningLine(scenario.derive(retest_attempts=1))
        report = line.screen_lot(small_lot, rng=1)
        assert report.n_recovered > 0
        assert report.n_accepted >= baseline.n_accepted

    def test_error_rates_match_batch_engine(self, small_lot):
        scenario = Scenario(counter_bits=4, dnl_spec_lsb=0.5)
        report = ScreeningLine(scenario).screen_lot(small_lot, rng=0)
        accepted = []
        good = []
        from repro.production import BatchBistEngine
        engine = BatchBistEngine(scenario.bist_config())
        for wafer in small_lot:
            accepted.append(engine.run_wafer(wafer).passed)
            good.append(wafer.good_mask(0.5))
        accepted = np.concatenate(accepted)
        good = np.concatenate(good)
        assert report.type_i == pytest.approx(np.mean(good & ~accepted))
        assert report.type_ii == pytest.approx(np.mean(~good & accepted))
        assert report.p_good == pytest.approx(good.mean())

    def test_single_wafer_is_a_lot(self):
        wafer = Wafer.draw(WaferSpec(n_devices=100), rng=2, wafer_id="solo")
        report = ScreeningLine(Scenario()).screen_lot(wafer, rng=0)
        assert report.lot_id == "solo"
        assert report.n_devices == 100

    def test_binning_edges(self, small_lot):
        line = ScreeningLine(Scenario(bin_edges_lsb=(0.4, 0.6, 0.8)))
        assert line.bin_names() == ["bin-1", "bin-2", "bin-3", "bin-4"]
        report = line.screen_lot(small_lot, rng=0)
        assert set(report.bin_counts) == set(line.bin_names())
        assert sum(report.bin_counts.values()) == report.n_accepted

    def test_tester_economics_scale(self, small_lot):
        digital = ScreeningLine(Scenario(tester="digital"))
        mixed = ScreeningLine(Scenario(tester="mixed"))
        r_dig = digital.screen_lot(small_lot, rng=0)
        r_mix = mixed.screen_lot(small_lot, rng=0)
        # Per-insertion operating cost is higher on the mixed-signal ATE.
        assert r_mix.cost_per_device > r_dig.cost_per_device
        # 128 vs 64 digital channels: the digital floor moves more devices.
        assert r_dig.devices_per_hour > r_mix.devices_per_hour


class TestResultStore:
    def test_accumulation_and_tables(self, small_lot):
        line = ScreeningLine(Scenario(counter_bits=4, dnl_spec_lsb=0.5))
        store = ResultStore()
        store.add(line.screen_lot(small_lot, rng=0))
        other = Lot.draw(WaferSpec(n_devices=150), n_wafers=1, seed=9,
                         lot_id="LOT-U")
        store.add(line.screen_lot(other, rng=0))

        assert len(store) == 2
        assert store.total_devices == 950
        assert store.total_accepted == sum(r.n_accepted
                                           for r in store.reports)
        assert 0 < store.overall_accept_fraction < 1
        assert store.total_tester_seconds > 0
        assert store.overall_devices_per_hour > 0
        assert sum(store.bin_totals().values()) == store.total_accepted

        lot_table = store.lot_table()
        assert "LOT-T" in lot_table and "LOT-U" in lot_table
        station_table = store.station_table()
        assert "bist" in station_table and "binning" in station_table
        bin_table = store.bin_table()
        assert "bin-1" in bin_table
        summary = store.summary()
        assert "lots screened: 2" in summary
        assert "devices screened: 950" in summary

    def test_station_totals_merge(self, small_lot):
        line = ScreeningLine(Scenario(counter_bits=4, dnl_spec_lsb=0.5,
                                      retest_attempts=1))
        store = ResultStore([line.screen_lot(small_lot, rng=0),
                             line.screen_lot(small_lot, rng=0)])
        totals = {s.name: s for s in store.station_totals()}
        assert totals["bist"].n_in == 1600
        per_lot = [r for r in store.reports]
        assert totals["retest"].n_in == sum(
            s.n_in for r in per_lot for s in r.stations
            if s.name == "retest")

    def test_bin_table_orders_double_digit_bins_naturally(self, small_lot):
        edges = tuple(0.30 + 0.03 * i for i in range(10))
        line = ScreeningLine(Scenario(bin_edges_lsb=edges))
        store = ResultStore([line.screen_lot(small_lot, rng=0)])
        table = store.bin_table()
        lines = [row.split()[0] for row in table.splitlines()[3:]]
        assert lines == line.bin_names()  # bin-2 before bin-10, etc.

    def test_empty_store(self):
        store = ResultStore()
        assert store.total_devices == 0
        assert store.overall_accept_fraction == 0.0
        assert "lots screened: 0" in store.summary()
