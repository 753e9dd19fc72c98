"""Adaptive-flow benchmark: sequential savings vs fixed-count screening.

The sequential (``flow="sprt"``) station keeps the fixed flow's verdicts
and stops each die at its first failing code, so its savings come only
from rejected dies.  On the paper's process sigma (0.21 LSB) under a
±0.5 LSB DNL spec about two dies in three fail a code; the benchmark
screens such a lot under both flows and asserts that the sequential
report equals the fixed one in accepted count, type I and type II while
saving tester time.

``flows.saved_samples_fraction``
    Fraction of the fixed flow's code observations the sequential
    station never had to take (the paper-level sample-savings headline).
``flows.saved_tester_seconds_fraction``
    Saved tester-seconds over the fixed insertion's tester-seconds —
    the same savings priced through the TesterModel.
``flows.burst_abort_fraction``
    Fraction of a burst-excursed lot left untested once the SPC charts
    abort its wafers — tester time the early abort recovers.

Wall-clock devices/s rows stay report-only (shared CI runners); the
model-level savings fractions are deterministic and asserted.
"""

import time

from repro.campaign import Scenario
from repro.production import ExecutionPlan, ScreeningLine
from repro.production.pool import close_default_pool
from repro.reporting import format_table

#: The paper's process point under a ±0.5 LSB spec.
BASELINE = dict(n_bits=8, sigma_code_width_lsb=0.21, dnl_spec_lsb=0.5,
                n_devices=2048, n_wafers=2, seed=11)

#: Burst-excursion point (matches the flows-smoke CI drill).
BURST = dict(n_bits=8, sigma_code_width_lsb=0.21, n_devices=512,
             n_wafers=2, seed=9, flow="sprt", excursion="burst")

_PLAN = ExecutionPlan(workers=1, shard_devices=64)
REPEATS = 3


def _screen(scenario, lot):
    line = ScreeningLine(scenario)
    start = time.perf_counter()
    report = line.screen_lot(lot, plan=_PLAN)
    return time.perf_counter() - start, report


def _best(scenario, lot, repeats=REPEATS):
    elapsed, report = _screen(scenario, lot)  # warm-up
    for _ in range(repeats):
        t, report = _screen(scenario, lot)
        elapsed = min(elapsed, t)
    return elapsed, report


class TestAdaptiveFlowEconomics:
    def test_sprt_savings_and_verdicts(self, report, bench):
        fixed = Scenario(flow="fixed", **BASELINE)
        sprt = fixed.derive(flow="sprt")
        lot = fixed.draw_lot()
        try:
            fixed_s, report_fixed = _best(fixed, lot)
            sprt_s, report_sprt = _best(sprt, lot)
            burst = Scenario(**BURST)
            _, report_burst = _screen(burst, burst.draw_lot())
        finally:
            close_default_pool()

        n = report_fixed.n_devices
        n_codes = sprt.wafer_spec().n_inner_codes
        saved_fraction = report_sprt.saved_samples / (n * n_codes)
        seconds_fraction = (report_sprt.saved_tester_seconds
                            / report_fixed.tester_seconds)
        abort_fraction = report_burst.n_aborted / report_burst.n_devices

        # The acceptance criteria, enforced on every trajectory point:
        # the fixed flow's verdicts, and real savings.
        assert report_sprt.n_accepted == report_fixed.n_accepted
        assert report_sprt.type_i == report_fixed.type_i
        assert report_sprt.type_ii == report_fixed.type_ii
        assert report_sprt.saved_samples > 0
        assert report_sprt.saved_tester_seconds > 0.0
        assert report_burst.excursions > 0
        assert 0.0 < abort_fraction < 1.0

        bench("flows.saved_samples_fraction", saved_fraction)
        bench("flows.saved_tester_seconds_fraction", seconds_fraction)
        bench("flows.burst_abort_fraction", abort_fraction)
        bench("flows.fixed_devices_per_s", n / fixed_s)
        bench("flows.sprt_devices_per_s", n / sprt_s)
        report(
            "adaptive flows: sequential vs fixed-count screening",
            format_table(
                ["flow", "tester [s]", "saved [s]", "type I", "type II",
                 "wall [s]", "devices/s"],
                [["fixed", report_fixed.tester_seconds, 0.0,
                  report_fixed.type_i, report_fixed.type_ii,
                  fixed_s, n / fixed_s],
                 ["sprt", report_sprt.tester_seconds,
                  report_sprt.saved_tester_seconds,
                  report_sprt.type_i, report_sprt.type_ii,
                  sprt_s, n / sprt_s]],
                title=f"{n} devices x {n_codes} codes at ±0.5 LSB; "
                      f"saved {saved_fraction:.1%} of samples, "
                      f"{seconds_fraction:.1%} of tester time; "
                      f"burst abort leaves {abort_fraction:.1%} untested"))
