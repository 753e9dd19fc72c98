"""Wafer-level SPC: charts, the mid-wafer abort, and its determinism.

The abort path under test: the :class:`SpcMonitor` observes shard
results streaming out of :class:`ShardExecutor` in absolute shard
order, raises the typed :class:`ExcursionAbort` when a chart trips,
the executor cancels the remaining shards and hands back the partial
merged prefix — and because the monitor is fed a contiguous prefix
regardless of worker scheduling, the abort shard (and every report
byte) is identical for every ``(workers, chunk_size)`` geometry.
"""

import numpy as np
import pytest

from repro.campaign import Scenario
from repro.flows.spc import Cusum, PChart, SpcMonitor, monitor_for_model
from repro.production import ExecutionPlan, ScreeningLine
from repro.production.execution import ExcursionAbort
from repro.production.pool import close_default_pool


@pytest.fixture(autouse=True)
def _close_pool():
    yield
    close_default_pool()


class _ShardResult:
    def __init__(self, passed, dnl=None):
        self.passed = np.asarray(passed)
        if dnl is not None:
            self.measured_max_dnl_lsb = np.asarray(dnl, dtype=float)


class TestCharts:
    def test_p_chart_limit_scales_with_sample_size(self):
        wide = PChart.for_sample_size(0.1, 16)
        tight = PChart.for_sample_size(0.1, 4096)
        assert tight.ucl < wide.ucl
        assert not tight.observe(0.1)
        assert tight.observe(1.0)

    def test_p_chart_validates(self):
        with pytest.raises(ValueError):
            PChart(center=1.5, ucl=2.0)
        with pytest.raises(ValueError):
            PChart(center=0.5, ucl=0.1)
        with pytest.raises(ValueError):
            PChart.for_sample_size(0.1, 0)

    def test_cusum_self_calibrates_then_accumulates(self):
        chart = Cusum(slack=0.05, threshold=0.5)
        assert not chart.observe(1.0)      # first finite value = target
        assert chart.target == 1.0
        assert not chart.observe(1.0)      # on target: no accumulation
        signalled = False
        for _ in range(10):
            signalled = signalled or chart.observe(1.2)
        assert signalled                   # persistent +0.15/shard drift

    def test_cusum_ignores_non_finite(self):
        chart = Cusum()
        assert not chart.observe(np.nan)
        assert chart.target is None


class TestMonitor:
    def test_trips_p_chart_on_reject_spike(self):
        monitor = SpcMonitor(p_chart=PChart(center=0.01, ucl=0.1),
                             wafer_id="W1")
        monitor.observe(0, _ShardResult(np.ones(32, dtype=bool)))
        with pytest.raises(ExcursionAbort) as err:
            monitor.observe(1, _ShardResult(np.zeros(32, dtype=bool)))
        assert err.value.statistic == "p_chart"
        assert err.value.shard == 1
        assert err.value.wafer_id == "W1"

    def test_trips_cusum_on_mean_drift(self):
        monitor = SpcMonitor(cusum=Cusum(slack=0.0, threshold=0.2))
        ones = np.ones(8, dtype=bool)
        monitor.observe(0, _ShardResult(ones, dnl=np.full(8, 0.3)))
        with pytest.raises(ExcursionAbort) as err:
            monitor.observe(1, _ShardResult(ones, dnl=np.full(8, 0.6)))
        assert err.value.statistic == "cusum"

    def test_skips_results_without_verdicts(self):
        monitor = SpcMonitor(p_chart=PChart(center=0.0, ucl=0.0))
        monitor.observe(0, object())
        monitor.observe(1, _ShardResult(np.zeros((2, 2), dtype=bool)))
        assert monitor.shards_seen == 0

    def test_model_monitor_passes_clean_baseline(self):
        scenario = Scenario(n_bits=8, sigma_code_width_lsb=0.21,
                            n_devices=256, seed=3, flow="sprt")
        from repro.campaign import per_code_model
        per_code = per_code_model(scenario)
        spec = scenario.wafer_spec()
        monitor = monitor_for_model(per_code, spec.n_inner_codes, 64)
        wafer = scenario.draw_wafer()
        passed = wafer.good_mask(scenario.dnl_spec_lsb, None)
        for shard, start in enumerate(range(0, 256, 64)):
            monitor.observe(shard, _ShardResult(passed[start:start + 64]))
        assert monitor.shards_seen == 4


def _burst_scenario(**overrides):
    base = dict(n_bits=8, sigma_code_width_lsb=0.21, n_devices=512,
                n_wafers=2, seed=9, flow="sprt", excursion="burst")
    base.update(overrides)
    return Scenario(**base)


class TestLineAbort:
    def test_burst_excursion_aborts_and_rejects_tail(self):
        scenario = _burst_scenario()
        report = ScreeningLine(scenario).screen_lot(
            scenario.draw_lot(),
            plan=ExecutionPlan(workers=1, shard_devices=64))
        assert report.excursions > 0
        assert report.n_aborted > 0
        station = report.stations[0]
        assert station.accounted == report.n_devices - report.n_aborted
        assert station.accounted < station.n_in

    def test_abort_is_geometry_invariant(self):
        scenario = _burst_scenario()
        lot = scenario.draw_lot()

        def digest(workers, chunk):
            line = ScreeningLine(scenario)
            report = line.screen_lot(
                lot, plan=ExecutionPlan(workers=workers, chunk_size=chunk,
                                        shard_devices=64))
            return (report.n_devices, report.n_accepted, report.n_aborted,
                    report.excursions, report.saved_samples,
                    report.tester_seconds, report.type_i, report.type_ii)

        reference = digest(1, None)
        for workers, chunk in [(2, None), (2, 23), (4, None)]:
            assert digest(workers, chunk) == reference, (workers, chunk)

    def test_partial_prefix_carries_real_verdicts(self):
        scenario = _burst_scenario(n_wafers=1, n_devices=1024)
        lot = scenario.draw_lot()
        report = ScreeningLine(scenario).screen_lot(
            lot, plan=ExecutionPlan(workers=1, shard_devices=64))
        done = report.n_devices - report.n_aborted
        # The tested prefix dispositions normally, so some devices of the
        # (mostly good) population must have shipped before the abort.
        assert 0 < done < report.n_devices
        assert report.n_accepted <= done

    def test_clean_lot_never_aborts(self):
        scenario = _burst_scenario(excursion=None)
        report = ScreeningLine(scenario).screen_lot(
            scenario.draw_lot(),
            plan=ExecutionPlan(workers=1, shard_devices=64))
        assert report.excursions == 0
        assert report.n_aborted == 0
