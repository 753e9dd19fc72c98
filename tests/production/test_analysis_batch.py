"""Batched conventional-test analysis: equivalence, properties, line wiring.

The analysis-batch layer's contract mirrors the batch BIST engines': the
same decisions and estimates as the scalar suites, bit for bit, on every
path — plus the statistical property that makes the histogram test a test
at all (estimated code widths converge to the drawn ones as the ramp
densifies), and the screening-line integration that turns both suites into
stations with per-method economics.
"""

import numpy as np
import pytest

from harness import (
    assert_dynamic_equivalent,
    assert_histogram_equivalent,
    draw_wafer,
)
from repro.analysis import DynamicAnalyzer, DynamicSpec, HistogramTest
from repro.campaign import Scenario
from repro.production import (
    BatchDynamicSuite,
    BatchHistogramTest,
    Lot,
    ResultStore,
    ScreeningLine,
    Wafer,
    WaferSpec,
)


class TestBatchHistogramEquivalence:
    def test_1k_device_paper_production_bit_exact(self):
        """The acceptance-criterion case: 1k devices, the paper's
        4096-sample production configuration, bit-exact."""
        wafer = draw_wafer(1000, "flash", seed=1997)
        test = BatchHistogramTest.paper_production(n_bits=6,
                                                   dnl_spec_lsb=0.5)
        _, batch = assert_histogram_equivalent(test, wafer)
        assert 0.0 < batch.accept_fraction < 1.0

    @pytest.mark.parametrize("architecture", ["flash", "sar", "pipeline"])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_architectures_and_noise(self, architecture, noise):
        wafer = draw_wafer(120, architecture, seed=11)
        test = BatchHistogramTest(samples_per_code=16.0, dnl_spec_lsb=0.5,
                                  inl_spec_lsb=1.0,
                                  transition_noise_lsb=noise)
        assert_histogram_equivalent(test, wafer, rng=3)

    def test_noisy_chunking_preserves_rng_order(self):
        wafer = draw_wafer(50, "flash", seed=3)
        test = BatchHistogramTest(samples_per_code=16.0,
                                  transition_noise_lsb=0.05)
        one = test.run_transitions(wafer.transitions, rng=5, chunk_size=50)
        many = test.run_transitions(wafer.transitions, rng=5, chunk_size=7)
        np.testing.assert_array_equal(one.passed, many.passed)
        np.testing.assert_array_equal(one.counts, many.counts)

    def test_unmeasurable_device_fails_with_nan(self):
        """A die whose curve sits entirely above the ramp never produces
        an inner-bin sample: the scalar test raises, the batch flags it."""
        wafer = draw_wafer(5, "flash", seed=2)
        transitions = wafer.transitions.copy()
        transitions[2] = 10.0  # far above full scale + margin
        test = BatchHistogramTest(samples_per_code=16.0)
        result = test.run_transitions(transitions)
        assert not result.measurable[2]
        assert not result.passed[2]
        assert np.isnan(result.measured_max_dnl_lsb[2])
        with pytest.raises(ValueError):
            test.scalar.evaluate_codes(np.zeros(result.samples_taken,
                                                dtype=int), n_bits=6)
        # The other dies are unaffected.
        reference = test.run_wafer(wafer)
        keep = [0, 1, 3, 4]
        np.testing.assert_array_equal(result.passed[keep],
                                      reference.passed[keep])

    def test_resolution_inferred_from_matrix(self):
        test = BatchHistogramTest()
        with pytest.raises(ValueError):
            test.run_transitions(np.zeros((4, 62)))  # not 2**n - 1
        with pytest.raises(ValueError):
            test.run_transitions(np.zeros(63))  # not a matrix

    def test_data_volume_bookkeeping(self):
        wafer = draw_wafer(10, "flash", seed=1)
        result = BatchHistogramTest(samples_per_code=16.0).run_wafer(wafer)
        assert result.bits_transferred_per_device == result.samples_taken * 6
        assert result.off_chip_bits_transferred == \
            10 * result.bits_transferred_per_device
        assert result.counts.sum() == 10 * result.samples_taken


class TestBatchHistogramConvergence:
    """Estimated code widths must converge to the drawn widths."""

    DENSITIES = (8.0, 64.0, 256.0)

    @pytest.mark.parametrize("architecture", ["flash", "sar", "pipeline"])
    def test_width_estimates_converge(self, architecture):
        wafer = draw_wafer(40, architecture, seed=13)
        # The drawn code-width matrix in LSB (what the backend realised).
        # A histogram estimates *sample occupancy*, which only equals the
        # signed drawn width on monotone curves — non-monotone gross
        # defects (possible for SAR draws) are excluded from the bound.
        drawn = np.diff(wafer.transitions, axis=1) / wafer.spec.lsb
        monotone = (drawn >= 0).all(axis=1)
        assert monotone.sum() >= 35, "the draw should be mostly monotone"
        worst = []
        for samples_per_code in self.DENSITIES:
            result = BatchHistogramTest(
                samples_per_code=samples_per_code).run_wafer(wafer)
            estimated = result.estimated_code_widths_lsb()
            worst.append(np.abs(estimated - drawn)[monotone].max())
        # Each crossing index quantises to one sample, so the width error
        # is below 2 samples = 2 / samples_per_code LSB.
        for samples_per_code, err in zip(self.DENSITIES, worst):
            assert err <= 2.0 / samples_per_code + 1e-9, (
                f"{architecture}: width error {err:.4f} LSB at "
                f"{samples_per_code} samples/code")
        # And the error genuinely shrinks as the ramp densifies.
        assert worst[-1] < worst[0]

    def test_estimates_match_scalar_definition(self):
        """The width estimator is the inner histogram over the density."""
        wafer = draw_wafer(8, "flash", seed=5)
        test = BatchHistogramTest(samples_per_code=32.0)
        result = test.run_wafer(wafer)
        np.testing.assert_allclose(result.estimated_code_widths_lsb(),
                                   result.counts[:, 1:-1] / 32.0)


class TestBatchDynamicEquivalence:
    def test_noise_free_bit_exact(self):
        wafer = draw_wafer(40, "flash", seed=23)
        suite = BatchDynamicSuite(analyzer=DynamicAnalyzer(n_samples=1024),
                                  spec=DynamicSpec(min_enob=5.0))
        _, batch = assert_dynamic_equivalent(suite, wafer)
        assert 0.0 < batch.accept_fraction < 1.0

    def test_noisy_is_keyed_by_device(self):
        wafer = draw_wafer(30, "sar", seed=7)
        suite = BatchDynamicSuite(analyzer=DynamicAnalyzer(n_samples=1024),
                                  spec=DynamicSpec(min_enob=4.5),
                                  transition_noise_lsb=0.3)
        assert_dynamic_equivalent(suite, wafer, rng=17)

    def test_multi_limit_spec(self):
        wafer = draw_wafer(30, "pipeline", seed=9)
        spec = DynamicSpec(min_enob=5.0, max_thd_db=-25.0,
                           min_sfdr_db=30.0)
        suite = BatchDynamicSuite(analyzer=DynamicAnalyzer(n_samples=1024),
                                  spec=spec)
        assert_dynamic_equivalent(suite, wafer)

    def test_default_spec_resolves_from_resolution(self):
        suite = BatchDynamicSuite()
        assert suite.resolved_spec(6).min_enob == pytest.approx(5.0)
        assert suite.resolved_spec(8).min_enob == pytest.approx(7.0)

    def test_spec_requires_a_limit(self):
        with pytest.raises(ValueError):
            DynamicSpec()

    def test_enob_shortfall_is_binning_metric(self):
        wafer = draw_wafer(20, "flash", seed=3)
        suite = BatchDynamicSuite(analyzer=DynamicAnalyzer(n_samples=1024),
                                  spec=DynamicSpec(min_enob=5.0))
        result = suite.run_wafer(wafer)
        np.testing.assert_allclose(
            result.enob_shortfall_lsb,
            np.maximum(6.0 - result.enob, 0.0))
        assert result.bits_transferred_per_device == 1024 * 6


class TestAnalysisScreeningLine:
    def test_histogram_line_matches_engine_decisions(self):
        lot = Lot.draw(WaferSpec(n_devices=300, architecture="sar"),
                       n_wafers=1, seed=31, lot_id="H-31")
        line = ScreeningLine(Scenario(method="histogram", dnl_spec_lsb=0.5,
                                      samples_per_code=32.0))
        report = line.screen_lot(lot, rng=0)
        store = ResultStore([report])
        direct = BatchHistogramTest(samples_per_code=32.0,
                                    dnl_spec_lsb=0.5).run_wafer(
                                        lot.wafers[0])
        assert report.n_accepted == direct.n_accepted
        assert report.method == "histogram"
        assert report.scenario == "sar/histogram"
        assert report.q == 6  # full words captured
        assert "histogram" in store.lot_table()
        assert "histogram" in store.method_table()

    def test_dynamic_line_screens_and_bins(self):
        lot = Lot.draw(WaferSpec(n_devices=120), n_wafers=1, seed=5,
                       lot_id="D-5")
        # The default analyzer: 4096 samples, ENOB floor n_bits - 1 = 5.
        line = ScreeningLine(Scenario(method="dynamic", dnl_spec_lsb=0.5,
                                      bin_edges_lsb=(0.5, 0.8)))
        report = line.screen_lot(lot, rng=0)
        assert report.method == "dynamic"
        assert report.samples_per_device == 4096
        assert sum(report.bin_counts.values()) == report.n_accepted
        assert 0 < report.n_accepted < report.n_devices

    def test_histogram_retest_with_noise_recovers(self):
        lot = Lot.draw(WaferSpec(n_devices=250), n_wafers=1, seed=11)
        line = ScreeningLine(Scenario(method="histogram", dnl_spec_lsb=0.5,
                                      transition_noise_lsb=0.1,
                                      samples_per_code=16.0,
                                      retest_attempts=1))
        report = line.screen_lot(lot, rng=3)
        retest = [s for s in report.stations if s.name == "retest"]
        assert len(retest) == 1 and retest[0].n_in > 0

    def test_method_economics_defaults(self):
        """Conventional methods need (and are priced on) a mixed-signal
        tester; the full BIST keeps its cheap digital tester."""
        wafer = Wafer.draw(WaferSpec(n_devices=200), rng=7)
        bist_line = ScreeningLine(Scenario())
        histogram_line = ScreeningLine(Scenario(method="histogram",
                                                samples_per_code=64.0))
        assert not bist_line.tester.has_mixed_signal
        assert histogram_line.tester.has_mixed_signal
        bist_report = bist_line.screen_lot(wafer, rng=0)
        histogram_report = histogram_line.screen_lot(wafer, rng=0)
        assert histogram_report.cost_per_device > \
            bist_report.cost_per_device
        assert histogram_report.devices_per_hour < \
            bist_report.devices_per_hour

    def test_explicit_tester_still_honoured(self):
        # The scenario's named tester wins over the per-method default.
        line = ScreeningLine(Scenario(method="histogram", tester="digital"))
        assert line.tester.name == "digital ATE"

    def test_describe_per_method(self):
        scenario = Scenario(dnl_spec_lsb=0.5)
        assert "full BIST" in ScreeningLine(scenario).describe()
        assert "histogram" in ScreeningLine(
            scenario.derive(method="histogram")).describe()
        assert "ENOB" in ScreeningLine(
            scenario.derive(method="dynamic")).describe()


class TestSharedWaferComparison:
    def test_bist_and_histogram_screen_the_same_dies(self):
        """The repro-compare contract: one wafer draw, two methods, and
        the decisions refer to the identical transfer curves (so the
        type I/II differences are attributable to the method alone)."""
        wafer = Wafer.draw(WaferSpec(n_devices=400,
                                     sigma_code_width_lsb=0.21), rng=1997)
        store = ResultStore()
        for method in ("bist", "histogram"):
            line = ScreeningLine(Scenario(method=method, dnl_spec_lsb=0.5,
                                          samples_per_code=64.0))
            store.add(line.screen_lot(Wafer(wafer.spec, wafer.transitions,
                                            wafer.wafer_id), rng=0))
        reports = store.reports
        assert reports[0].p_good == reports[1].p_good  # same truth
        # Both methods track the truth closely at the paper's settings.
        for report in reports:
            assert report.type_i + report.type_ii < 0.1
        table = store.method_table()
        assert "bist" in table and "histogram" in table
