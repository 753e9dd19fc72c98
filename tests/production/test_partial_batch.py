"""Scalar-vs-batch partial-BIST equivalence and chip-mode tests.

The batched partial engine's contract mirrors the full-BIST batch engine's:
on the same population it must reproduce the scalar
:class:`~repro.core.partial_engine.PartialBistEngine` accept/reject
decisions bit for bit — for every architecture, every ``q`` (including the
q-too-small breakdown case of Equation (1)), and with acquisition noise.
The equivalence checks live in the shared differential harness
(``harness.py``).
"""

import numpy as np
import pytest

from harness import assert_partial_equivalent as _assert_batch_matches_scalar
from repro.core import (
    MultiAdcBistController,
    BistConfig,
    DeviceNoise,
    PartialBistConfig,
    PartialBistEngine,
)
from repro.production import (
    BatchBistEngine,
    BatchPartialBistEngine,
    Wafer,
    WaferSpec,
    chip_grouping,
)


class TestScalarBatchPartialEquivalence:
    def test_1k_device_population_bit_exact(self):
        """The acceptance-criterion case: >=1k devices, q=2, bit-exact."""
        wafer = Wafer.draw(WaferSpec(n_devices=1000,
                                     sigma_code_width_lsb=0.21), rng=1997)
        config = PartialBistConfig(n_bits=6, q=2, dnl_spec_lsb=0.5)
        scalar, batch = _assert_batch_matches_scalar(config, wafer)
        # The stringent spec must actually reject a nontrivial fraction.
        assert 0.0 < batch.accept_fraction < 1.0

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_every_q_matches_and_reconstructs(self, q):
        wafer = Wafer.draw(WaferSpec(n_devices=150), rng=11)
        config = PartialBistConfig(n_bits=6, q=q, dnl_spec_lsb=1.0,
                                   inl_spec_lsb=1.0)
        _, batch = _assert_batch_matches_scalar(config, wafer)
        # A 16-samples-per-code ramp satisfies Equation (1) for any q:
        # every device's codes must reconstruct exactly.
        assert (batch.reconstruction_error_rate == 0.0).all()

    def test_reconstructed_codes_bit_exact_per_device(self):
        """Kernel-level check: the batch reconstruction equals the scalar
        one sample for sample, not just in aggregate."""
        from repro.core import (batch_quantise_shared,
                                batch_reconstruct_codes, reconstruct_codes)
        wafer = Wafer.draw(WaferSpec(n_devices=40), rng=13)
        config = PartialBistConfig(n_bits=6, q=3, dnl_spec_lsb=1.0)
        scalar_engine = PartialBistEngine(config)
        records = [scalar_engine.run(d, keep_record=True).record
                   for d in wafer.devices()]
        codes = np.vstack([r.codes for r in records])
        observed = codes & 7
        rebuilt = batch_reconstruct_codes(observed, 3, 6,
                                          initial_upper=codes[:, 0] >> 3)
        for d in range(codes.shape[0]):
            np.testing.assert_array_equal(
                rebuilt[d],
                reconstruct_codes(observed[d], 3, 6,
                                  initial_upper=int(codes[d, 0]) >> 3))
        # And the shared-ramp quantisation reproduces the acquisitions.
        times = records[0].sample_times
        ramp_voltages = records[0].input_voltages
        np.testing.assert_array_equal(
            batch_quantise_shared(wafer.transitions, ramp_voltages), codes)
        assert times.size == codes.shape[1]

    def test_q_too_small_breakdown_matches_scalar(self):
        """A fast stimulus breaks the q=1 reconstruction (Equation (1));
        the batch engine must reproduce the broken decisions bit for bit."""
        wafer = Wafer.draw(WaferSpec(n_devices=200), rng=3)
        config = PartialBistConfig(n_bits=6, q=1, samples_per_code=1.0,
                                   dnl_spec_lsb=1.0)
        _, batch = _assert_batch_matches_scalar(config, wafer)
        assert batch.reconstruction_error_rate.mean() > 0.1
        # A larger q restores exact reconstruction at the same ramp rate.
        config_ok = PartialBistConfig(n_bits=6, q=3, samples_per_code=1.0,
                                      dnl_spec_lsb=1.0)
        _, recovered = _assert_batch_matches_scalar(config_ok, wafer)
        assert (recovered.reconstruction_error_rate == 0.0).all()

    @pytest.mark.parametrize("architecture", ["sar", "pipeline"])
    def test_non_flash_architectures(self, architecture):
        wafer = Wafer.draw(WaferSpec(n_devices=250,
                                     architecture=architecture), rng=21)
        config = PartialBistConfig(n_bits=6, q=2, dnl_spec_lsb=0.5,
                                   inl_spec_lsb=1.0)
        _, batch = _assert_batch_matches_scalar(config, wafer)
        assert 0.0 < batch.accept_fraction < 1.0

    def test_transition_noise_is_keyed_by_device(self):
        wafer = Wafer.draw(WaferSpec(n_devices=60), rng=5)
        config = PartialBistConfig(n_bits=6, q=2, dnl_spec_lsb=1.0,
                                   transition_noise_lsb=0.05)
        _assert_batch_matches_scalar(config, wafer, rng=77)

    def test_chunking_is_invariant(self):
        wafer = Wafer.draw(WaferSpec(n_devices=100), rng=9)
        config = PartialBistConfig(n_bits=6, q=2, dnl_spec_lsb=1.0)
        engine = BatchPartialBistEngine(config)
        one = engine.run_wafer(wafer)
        many = engine.run_transitions(wafer.transitions, chunk_size=7)
        np.testing.assert_array_equal(one.passed, many.passed)
        np.testing.assert_array_equal(one.measured_max_dnl_lsb,
                                      many.measured_max_dnl_lsb)

    def test_run_population_scores_against_truth(self):
        wafer = Wafer.draw(WaferSpec(n_devices=300), rng=2)
        config = PartialBistConfig(n_bits=6, q=2, dnl_spec_lsb=0.5)
        outcome = BatchPartialBistEngine(config).run_population(wafer)
        np.testing.assert_array_equal(outcome.truly_good,
                                      wafer.good_mask(0.5))
        assert outcome.n_devices == 300

    def test_resolution_mismatch_rejected(self):
        engine = BatchPartialBistEngine(PartialBistConfig(n_bits=6, q=2))
        with pytest.raises(ValueError):
            engine.run_transitions(np.zeros((4, 255)))

    def test_bits_captured_bookkeeping(self):
        wafer = Wafer.draw(WaferSpec(n_devices=10), rng=1)
        result = BatchPartialBistEngine(
            PartialBistConfig(n_bits=6, q=3)).run_wafer(wafer)
        assert result.bits_captured_per_device == 3 * result.samples_taken
        assert result.off_chip_bits_transferred == \
            10 * result.bits_captured_per_device


class TestBatchChipMode:
    def test_grouping_matches_controller_noise_free(self):
        """Chip verdicts and registers equal the scalar multi-ADC
        controller's in the deterministic (noise-free) configuration."""
        wafer = Wafer.draw(WaferSpec(n_devices=48,
                                     sigma_code_width_lsb=0.15), rng=17)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=0.5)
        batch = BatchBistEngine(config).run_chips(wafer,
                                                  converters_per_chip=4)
        controller = MultiAdcBistController(config)
        for chip in range(batch.n_chips):
            devices = [wafer.device(chip * 4 + i) for i in range(4)]
            ref = controller.run_chip(devices)
            assert bool(batch.chip_passed[chip]) == ref.passed
            assert int(batch.result_registers[chip]) == ref.result_register
        assert 0 < batch.n_chips_passed < batch.n_chips

    def test_partial_chip_mode(self):
        wafer = Wafer.draw(WaferSpec(n_devices=60, architecture="sar"),
                           rng=23)
        engine = BatchPartialBistEngine(
            PartialBistConfig(n_bits=6, q=2, dnl_spec_lsb=0.5))
        chips = engine.run_chips(wafer, converters_per_chip=4)
        singles = engine.run_wafer(wafer)
        expected, registers = chip_grouping(singles.passed, 4)
        np.testing.assert_array_equal(chips.chip_passed, expected)
        np.testing.assert_array_equal(chips.result_registers, registers)
        assert chips.sequential_test_time_s == pytest.approx(
            4 * chips.test_time_s)

    def test_noisy_partial_chip_mode_matches_scalar_replay(self):
        """Keyed noise: with transition noise, converter ``j`` of chip
        ``c`` must reproduce the scalar partial engine run under device
        key ``c * 4 + j`` — the scheme the full-BIST chip mode (and the
        multi-ADC controller) uses."""
        wafer = Wafer.draw(WaferSpec(n_devices=24), rng=5)
        config = PartialBistConfig(n_bits=6, q=2, dnl_spec_lsb=1.0,
                                   transition_noise_lsb=0.02)
        batch = BatchPartialBistEngine(config).run_chips(
            wafer, converters_per_chip=4, rng=77)

        scalar = PartialBistEngine(config)
        noise = DeviceNoise(77)
        replay = [scalar.run(wafer.device(d), rng=noise.generator(d)).passed
                  for d in range(24)]
        np.testing.assert_array_equal(batch.converter_passed,
                                      np.array(replay))

    def test_noisy_partial_chip_mode_regression_vector(self):
        """Pinned outcome of a seeded noisy chip run.

        Any change to the seeding discipline (device keys, substream
        positioning, noise-draw order) shows up here as a changed
        register vector, not as a silent re-draw."""
        wafer = Wafer.draw(WaferSpec(n_devices=24), rng=5)
        config = PartialBistConfig(n_bits=6, q=2, dnl_spec_lsb=1.0,
                                   transition_noise_lsb=0.02)
        result = BatchPartialBistEngine(config).run_chips(
            wafer, converters_per_chip=4, rng=77)
        np.testing.assert_array_equal(
            result.result_registers, [15, 15, 15, 15, 15, 15])
        assert result.chip_passed.all()
        assert result.n_chips_passed == 6

    def test_noisy_chip_mode_rejects_generator(self):
        wafer = Wafer.draw(WaferSpec(n_devices=8), rng=5)
        config = PartialBistConfig(n_bits=6, q=2, dnl_spec_lsb=1.0,
                                   transition_noise_lsb=0.02)
        with pytest.raises(ValueError):
            BatchPartialBistEngine(config).run_chips(
                wafer, 4, rng=np.random.default_rng(0))

    def test_chip_grouping_validation(self):
        with pytest.raises(ValueError):
            chip_grouping(np.ones(10, dtype=bool), 4)
        with pytest.raises(ValueError):
            chip_grouping(np.ones(10, dtype=bool), 0)
        # Registers are packed into int64: 64+ converters would overflow.
        with pytest.raises(ValueError):
            chip_grouping(np.ones(128, dtype=bool), 64)
        _, registers = chip_grouping(np.ones(63, dtype=bool), 63)
        assert registers[0] == (1 << 63) - 1


class TestPartialScreeningLine:
    def test_partial_line_matches_engine_decisions(self):
        from repro.campaign import Scenario
        from repro.production import Lot, ResultStore, ScreeningLine
        lot = Lot.draw(WaferSpec(n_devices=200, architecture="pipeline"),
                       n_wafers=1, seed=31, lot_id="P-31")
        line = ScreeningLine(Scenario(q=2, dnl_spec_lsb=0.5,
                                      devices_per_ic=4))
        report = line.screen_lot(lot, rng=0)
        store = ResultStore([report])
        engine = BatchPartialBistEngine(PartialBistConfig(
            n_bits=6, q=2, dnl_spec_lsb=0.5))
        direct = engine.run_wafer(lot.wafers[0])
        assert report.n_accepted == direct.n_accepted
        assert report.mode == "partial" and report.q == 2
        assert report.architecture == "pipeline"
        assert report.n_chips == 50
        assert report.chip_yield is not None
        assert "partial q=2" in store.lot_table()
        assert "chips screened" in store.summary()

    def test_line_rejects_non_dividing_chip_size(self):
        """Pricing per-IC insertions while silently skipping chip yield
        would misreport the economics: non-dividing wafers are an error."""
        from repro.campaign import Scenario
        from repro.production import Lot, ScreeningLine
        lot = Lot.draw(WaferSpec(n_devices=100), n_wafers=1, seed=1)
        line = ScreeningLine(Scenario(n_devices=99, devices_per_ic=3))
        with pytest.raises(ValueError):
            line.screen_lot(lot)
