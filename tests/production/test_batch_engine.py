"""Scalar-vs-batch equivalence and batch LSB-extraction property tests.

The batch engine's contract is exactness: on the same seeded population it
must reproduce the scalar engine's accept/reject decisions bit for bit, on
every execution path (noise-free event path, noisy stream path, deglitch,
non-monotone gross-defect devices).  These tests pin that contract through
the shared differential harness (``harness.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from harness import assert_full_bist_equivalent as _assert_population_equal
from repro.adc import DevicePopulation, PopulationSpec
from repro.core import (
    BistConfig,
    BistEngine,
    CountLimits,
    DeviceNoise,
    LsbProcessor,
    MultiAdcBistController,
    PartialBistConfig,
)
from repro.production import (
    BatchBistEngine,
    BatchLsbProcessor,
    BatchPartialBistEngine,
    Wafer,
    WaferSpec,
    batch_deglitch,
    chip_grouping,
)
from repro.core.decision import decide_counts
from repro.core.deglitch import DeglitchFilter
from repro.production.batch_engine import _ChunkOutcome

#: Result registers and passing chips of the seeded noisy chip run below.
PINNED_REGISTERS = [10, 13, 15, 6, 15, 15]
PINNED_CHIPS_PASSED = 3


class TestScalarBatchEquivalence:
    def test_500_device_seeded_population(self):
        """The acceptance-criterion case: 500 seeded devices, bit-exact."""
        wafer = Wafer.draw(WaferSpec(n_devices=500,
                                     sigma_code_width_lsb=0.21), rng=42)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)
        _assert_population_equal(config, wafer, rng=0)

    def test_stringent_spec_small_counter(self):
        wafer = Wafer.draw(WaferSpec(n_devices=300), rng=11)
        config = BistConfig(n_bits=6, counter_bits=4, dnl_spec_lsb=0.5)
        scalar = BistEngine(config).run_population(wafer.devices(), rng=0)
        batch = BatchBistEngine(config).run_population(wafer, rng=0)
        np.testing.assert_array_equal(scalar.accepted, batch.accepted)
        # The stringent spec must actually reject a nontrivial fraction,
        # otherwise this test proves nothing.
        assert 0.0 < scalar.p_accept < 1.0

    def test_inl_specification(self):
        wafer = Wafer.draw(WaferSpec(n_devices=200,
                                     sigma_code_width_lsb=0.3), rng=4)
        config = BistConfig(n_bits=6, counter_bits=6, dnl_spec_lsb=1.0,
                            inl_spec_lsb=0.8)
        _assert_population_equal(config, wafer, rng=0)

    def test_configured_inl_spec_reaches_true_classification(self):
        """A configured INL spec must shape the truly-good reference too
        (not only the BIST decision), for both engines."""
        wafer = Wafer.draw(WaferSpec(n_devices=150,
                                     sigma_code_width_lsb=0.3), rng=4)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                            inl_spec_lsb=0.5)
        expected = wafer.good_mask(1.0, inl_spec_lsb=0.5)
        assert not expected.all(), "the INL spec should bite on this draw"
        batch = BatchBistEngine(config).run_population(wafer, rng=0)
        np.testing.assert_array_equal(batch.truly_good, expected)
        scalar = BistEngine(config).run_population(wafer.devices(), rng=0)
        np.testing.assert_array_equal(scalar.truly_good, expected)

    def test_gross_defect_devices(self):
        """Large sigma: missing codes and non-monotone curves included."""
        wafer = Wafer.draw(WaferSpec(n_devices=250,
                                     sigma_code_width_lsb=0.6), rng=9)
        non_monotone = (np.diff(wafer.transitions, axis=1) < 0).any(axis=1)
        assert non_monotone.any(), "the draw should contain gross defects"
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)
        _assert_population_equal(config, wafer, rng=0)

    def test_transition_noise_with_deglitch(self):
        """Stream path: every device draws its own keyed noise stream."""
        wafer = Wafer.draw(WaferSpec(n_devices=60,
                                     sigma_code_width_lsb=0.3), rng=2)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                            transition_noise_lsb=0.02, deglitch_depth=3)
        scalar = BistEngine(config).run_population(wafer.devices(), rng=77)
        batch = BatchBistEngine(config).run_population(wafer, rng=77)
        np.testing.assert_array_equal(scalar.accepted, batch.accepted)
        assert 0.0 < scalar.p_accept

    def test_transition_noise_chunking_preserves_rng_order(self):
        wafer = Wafer.draw(WaferSpec(n_devices=50), rng=3)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                            transition_noise_lsb=0.05, deglitch_depth=2)
        engine = BatchBistEngine(config)
        one_chunk = engine.run_transitions(wafer.transitions, rng=5,
                                           chunk_size=50)
        many_chunks = engine.run_transitions(wafer.transitions, rng=5,
                                             chunk_size=7)
        np.testing.assert_array_equal(one_chunk.passed, many_chunks.passed)

    def test_noise_free_deglitch_accepts_like_no_filter(self):
        """A deglitched clock lags the code by depth - 1 samples; the MSB
        check must allow that one-count lag instead of rejecting every
        die of a noise-free run."""
        wafer = Wafer.draw(WaferSpec(n_devices=200,
                                     sigma_code_width_lsb=0.21), rng=12)
        plain = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)
        filtered = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                              deglitch_depth=3)
        reference = BatchBistEngine(plain).run_wafer(wafer)
        batch = BatchBistEngine(filtered).run_wafer(wafer)
        np.testing.assert_array_equal(batch.passed, reference.passed)
        assert reference.accept_fraction > 0.5
        devices = [wafer.device(i) for i in range(40)]
        scalar = BistEngine(filtered).run_population(devices)
        np.testing.assert_array_equal(scalar.accepted, reference.passed[:40])

    def test_stimulus_noise(self):
        wafer = Wafer.draw(WaferSpec(n_devices=40), rng=6)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                            stimulus_noise_lsb=0.05, seed=5)
        _assert_population_equal(config, wafer, rng=1)

    def test_majority_deglitch_mode(self):
        wafer = Wafer.draw(WaferSpec(n_devices=40), rng=8)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                            transition_noise_lsb=0.02, deglitch_depth=2,
                            deglitch_mode="majority")
        _assert_population_equal(config, wafer, rng=3)

    def test_wrapping_counter_and_no_msb_check(self):
        wafer = Wafer.draw(WaferSpec(n_devices=150,
                                     sigma_code_width_lsb=0.4), rng=10)
        config = BistConfig(n_bits=6, counter_bits=5, dnl_spec_lsb=1.0,
                            counter_saturate=False, check_msb=False)
        _assert_population_equal(config, wafer, rng=0)

    def test_device_population_gaussian(self):
        pop = DevicePopulation(PopulationSpec(
            size=120, seed=11, architecture="gaussian"))
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)
        scalar = BistEngine(config).run_population(pop, rng=0)
        batch = BatchBistEngine(config).run_population(pop, rng=0)
        np.testing.assert_array_equal(scalar.accepted, batch.accepted)
        np.testing.assert_array_equal(scalar.truly_good, batch.truly_good)

    def test_device_population_flash(self):
        pop = DevicePopulation(PopulationSpec(
            size=60, seed=13, architecture="flash"))
        config = BistConfig(n_bits=6, counter_bits=4, dnl_spec_lsb=0.5)
        scalar = BistEngine(config).run_population(pop, rng=0)
        batch = BatchBistEngine(config).run_population(pop, rng=0)
        np.testing.assert_array_equal(scalar.accepted, batch.accepted)
        np.testing.assert_array_equal(scalar.truly_good, batch.truly_good)

    def test_event_chunking_is_invariant(self):
        wafer = Wafer.draw(WaferSpec(n_devices=100), rng=1)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)
        engine = BatchBistEngine(config)
        a = engine.run_wafer(wafer)
        b = engine.run_transitions(wafer.transitions, chunk_size=9)
        np.testing.assert_array_equal(a.passed, b.passed)
        np.testing.assert_array_equal(a.n_transitions, b.n_transitions)

    def test_resolution_mismatch_rejected(self):
        engine = BatchBistEngine(BistConfig(n_bits=6))
        with pytest.raises(ValueError):
            engine.run_transitions(np.zeros((4, 255)))


class TestBatchResultBookkeeping:
    def test_counts_and_fractions(self):
        wafer = Wafer.draw(WaferSpec(n_devices=300), rng=11)
        config = BistConfig(n_bits=6, counter_bits=4, dnl_spec_lsb=0.5)
        result = BatchBistEngine(config).run_wafer(wafer)
        assert result.n_devices == 300
        assert result.n_accepted + result.n_rejected == 300
        assert result.accept_fraction == pytest.approx(
            result.n_accepted / 300)
        assert result.off_chip_bits_transferred == 300
        # Noise-free regular devices see every LSB transition.
        assert (result.n_transitions == 63).all()

    def test_measured_dnl_matches_scalar_reconstruction(self):
        wafer = Wafer.draw(WaferSpec(n_devices=20), rng=3)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)
        batch = BatchBistEngine(config).run_wafer(wafer)
        scalar = BistEngine(config)
        for i in (0, 7, 19):
            ref = scalar.run(wafer.device(i))
            assert batch.measured_max_dnl_lsb[i] == pytest.approx(
                np.max(np.abs(ref.measured_dnl_lsb)))


def _full_row_decisions(counts, limits, saturate):
    """Reference: every code through ``decide_counts``, then the max |DNL|
    of the readings' widths over their row mean, and the stop one code
    past the first failing code (the code count when none fails)."""
    decision = decide_counts(counts, limits, saturate=saturate)
    widths = decision.readings * limits.delta_s_lsb
    mean = widths.mean(axis=1)
    mean = np.where(mean == 0.0, 1.0, mean)
    failing = ~decision.code_pass
    stops = np.where(failing.any(axis=1), failing.argmax(axis=1) + 1,
                     counts.shape[1])
    return (decision.dnl_pass.all(axis=1), decision.inl_pass.all(axis=1),
            np.abs(widths / mean[:, None] - 1.0).max(axis=1), stops)


@st.composite
def _regular_count_rows(draw, counter_saturate=True, inl=False):
    """A configuration and count rows of regular dies (every count > 0),
    drawn around the limits, the counter's reach and the ideal count."""
    config = BistConfig(
        n_bits=draw(st.integers(2, 8)),
        counter_bits=draw(st.integers(2, 10)),
        dnl_spec_lsb=draw(st.floats(0.25, 2.0)),
        inl_spec_lsb=draw(st.floats(0.25, 2.0)) if inl else None,
        counter_saturate=counter_saturate)
    limits = config.limits()
    full = 1 << limits.counter_bits
    edges = [limits.i_min - 1, limits.i_min, limits.i_max,
             limits.i_max + 1, full - 1, full, full + 1,
             round(limits.ideal_count)]
    values = st.one_of(st.sampled_from([v for v in edges if v > 0]),
                       st.integers(1, full + 2))
    shape = (draw(st.integers(1, 6)), (1 << config.n_bits) - 2)
    # The event path's counts are diffs of int32 crossing indices.
    return config, draw(hnp.arrays(np.int32, shape, elements=values))


class TestRegularDecisions:
    """The event path's decisions on regular dies equal the full-row
    reference: from the row extremes under a saturating counter without
    an INL spec, on the full rows otherwise.  Either way the stop codes
    are the full rows' first failing codes."""

    @staticmethod
    def _assert_matches_full_row(config, counts):
        engine = BatchBistEngine(config)
        outcome = _ChunkOutcome.empty(*counts.shape)
        engine._regular_outcome(counts, counts.min(axis=1),
                                counts.max(axis=1), outcome, slice(None))
        dnl, inl, max_dnl, stops = _full_row_decisions(
            counts, engine.limits, config.counter_saturate)
        np.testing.assert_array_equal(outcome.dnl_passed, dnl)
        np.testing.assert_array_equal(outcome.inl_passed, inl)
        np.testing.assert_array_equal(outcome.stop_codes, stops)
        assert outcome.measured_max_dnl_lsb.tobytes() == max_dnl.tobytes()
        assert (outcome.n_transitions == counts.shape[1] + 1).all()
        assert outcome.msb_passed.all()

    @settings(max_examples=200, deadline=None)
    @given(_regular_count_rows())
    def test_row_extremes_decide_a_saturating_counter(self, drawn):
        self._assert_matches_full_row(*drawn)

    @settings(max_examples=60, deadline=None)
    @given(_regular_count_rows(counter_saturate=False))
    def test_wrapping_counter_decides_on_the_full_row(self, drawn):
        self._assert_matches_full_row(*drawn)

    @settings(max_examples=60, deadline=None)
    @given(_regular_count_rows(inl=True))
    def test_inl_spec_decides_on_the_full_row(self, drawn):
        self._assert_matches_full_row(*drawn)


class TestLsbBlockStops:
    """Stops read from the LSB block's packed per-code decisions (the
    irregular event rows and the stream path)."""

    def test_stop_is_clipped_to_the_code_count(self):
        """A noisy stream can count more codes than the converter has;
        a first failing count beyond the last code stops at the last
        code."""
        limits = BistConfig(n_bits=2).limits()
        ideal = int(round(limits.ideal_count))
        edges = ideal * np.array([1, 2, 3, 4, 5, 8])
        stream = np.zeros((1, 9 * ideal), dtype=np.int8)
        stream[0, edges] = 1
        lsb = BatchLsbProcessor(limits).process(
            np.bitwise_xor.accumulate(stream, axis=1), n_bits=2)
        assert lsb.dnl_pass_per_code[0, :4].all()
        assert not lsb.dnl_pass_per_code[0, 4]
        outcome = _ChunkOutcome.from_lsb(lsb, np.ones(1, dtype=bool), 2)
        assert outcome.stop_codes.tolist() == [2]


class TestBatchLsbProcessorProperties:
    """Property tests: batch extraction vs scalar block on random streams."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_streams_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        streams = (rng.random((40, 400)) < 0.3).astype(np.int8)
        limits = CountLimits.for_counter(5, 1.0, inl_spec_lsb=1.0)
        batch = BatchLsbProcessor(limits).process(streams, n_bits=6)
        scalar = LsbProcessor(limits)
        for d in range(streams.shape[0]):
            ref = scalar.process(streams[d], n_bits=6)
            n = batch.n_counts[d]
            assert n == ref.counts.size
            np.testing.assert_array_equal(batch.counts[d, :n], ref.counts)
            np.testing.assert_array_equal(batch.counter_readings[d, :n],
                                          ref.counter_readings)
            np.testing.assert_array_equal(batch.dnl_pass_per_code[d, :n],
                                          ref.dnl_pass_per_code)
            np.testing.assert_array_equal(batch.inl_pass_per_code[d, :n],
                                          ref.inl_pass_per_code)
            np.testing.assert_allclose(
                batch.inl_deviation_counts[d, :n],
                ref.inl_deviation_counts)
            assert batch.n_transitions[d] == ref.n_transitions
            assert bool(batch.passed[d]) == ref.passed

    @pytest.mark.parametrize("mode,depth", [("hysteresis", 2),
                                            ("majority", 1)])
    def test_deglitched_streams_match_scalar(self, mode, depth):
        rng = np.random.default_rng(99)
        streams = (rng.random((15, 300)) < 0.5).astype(np.int8)
        filt = DeglitchFilter(depth, mode)
        limits = CountLimits.for_counter(4, 0.5)
        batch = BatchLsbProcessor(limits, deglitch=filt).process(streams)
        scalar = LsbProcessor(limits, deglitch=filt)
        for d in range(streams.shape[0]):
            ref = scalar.process(streams[d])
            n = batch.n_counts[d]
            np.testing.assert_array_equal(batch.counts[d, :n], ref.counts)
            assert batch.n_transitions[d] == ref.n_transitions

    def test_constant_and_single_toggle_streams(self):
        limits = CountLimits.for_counter(4, 1.0)
        streams = np.zeros((3, 50), dtype=np.int8)
        streams[1, 25:] = 1          # one edge -> no complete code
        streams[2, 10:20] = 1        # two edges -> one count of 10
        batch = BatchLsbProcessor(limits).process(streams)
        assert list(batch.n_transitions) == [0, 1, 2]
        assert list(batch.n_counts) == [0, 0, 1]
        assert batch.counts[2, 0] == 10
        assert not batch.passed[0] and not batch.passed[1]

    def test_batch_deglitch_matches_scalar_rows(self):
        rng = np.random.default_rng(5)
        streams = (rng.random((20, 200)) < 0.5).astype(np.int8)
        for mode, depth in (("hysteresis", 3), ("majority", 2)):
            filt = DeglitchFilter(depth, mode)
            got = batch_deglitch(streams, filt)
            for d in range(streams.shape[0]):
                np.testing.assert_array_equal(got[d],
                                              filt.apply(streams[d]))


class TestNoisyChipModeControllerParity:
    """The batched chip mode must match the scalar engine and
    MultiAdcBistController converter for converter: converter ``j`` of
    chip ``c`` is device ``c * k + j`` and draws that device's keyed
    noise."""

    CONFIG = dict(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                  transition_noise_lsb=0.05, deglitch_depth=3)

    def test_noisy_chips_match_controller_bit_for_bit(self):
        wafer = Wafer.draw(WaferSpec(n_devices=24,
                                     sigma_code_width_lsb=0.21), rng=17)
        config = BistConfig(**self.CONFIG)
        batch = BatchBistEngine(config).run_chips(wafer, 4, rng=123)
        scalar = BistEngine(config)
        noise = DeviceNoise(123)
        passed = [scalar.run(wafer.device(d), rng=noise.generator(d),
                             keep_record=False).passed
                  for d in range(24)]
        np.testing.assert_array_equal(batch.converter_passed, passed)
        _, registers = chip_grouping(np.array(passed), 4)
        np.testing.assert_array_equal(batch.result_registers, registers)
        chips = [[wafer.device(c * 4 + j) for j in range(4)]
                 for c in range(6)]
        lot = MultiAdcBistController(config).run_lot(chips, rng=123)
        assert lot["chips_passed"] == batch.n_chips_passed
        assert lot["converter_fallout"] == batch.converter_fallout

    def test_seeded_decisions_pinned(self):
        """Regression pin of the seeded noisy chip run (numpy Generator
        streams are stability-guaranteed, so these numbers are stable)."""
        wafer = Wafer.draw(WaferSpec(n_devices=24,
                                     sigma_code_width_lsb=0.21), rng=17)
        config = BistConfig(**self.CONFIG)
        batch = BatchBistEngine(config).run_chips(wafer, 4, rng=123)
        assert list(map(int, batch.result_registers)) == PINNED_REGISTERS
        assert int(batch.n_chips_passed) == PINNED_CHIPS_PASSED
        # Chip mode is the wafer run grouped into chips: one noise scheme.
        wafer_run = BatchBistEngine(config).run_wafer(wafer, rng=123)
        _, registers = chip_grouping(wafer_run.passed, 4)
        assert list(map(int, registers)) == PINNED_REGISTERS

    def test_noisy_chips_reject_generator_rng(self):
        wafer = Wafer.draw(WaferSpec(n_devices=8), rng=1)
        engine = BatchBistEngine(BistConfig(**self.CONFIG))
        with pytest.raises(ValueError):
            engine.run_chips(wafer, 4, rng=np.random.default_rng(0))

    def test_noisy_chips_chunking_is_invariant(self):
        """Chips spanning chunk boundaries see the same child seeds."""
        wafer = Wafer.draw(WaferSpec(n_devices=40,
                                     sigma_code_width_lsb=0.21), rng=9)
        engine = BatchBistEngine(BistConfig(**self.CONFIG))
        full = engine.run_chips(wafer, 4, rng=7)
        small = engine.run_chips(wafer, 4, rng=7,
                                 chunk_size=5)  # ~1 chip per chunk
        np.testing.assert_array_equal(full.chip_passed, small.chip_passed)
        np.testing.assert_array_equal(full.result_registers,
                                      small.result_registers)

    def test_noise_free_chip_mode_unchanged(self):
        wafer = Wafer.draw(WaferSpec(n_devices=16), rng=2)
        config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0)
        chips = BatchBistEngine(config).run_chips(wafer, 4, rng=0)
        singles = BatchBistEngine(config).run_wafer(wafer, rng=0)
        expected, _ = chip_grouping(singles.passed, 4)
        np.testing.assert_array_equal(chips.chip_passed, expected)

    @pytest.mark.parametrize("engine", [
        BatchBistEngine(BistConfig(seed=5, transition_noise_lsb=0.05,
                                   deglitch_depth=3)),
        BatchPartialBistEngine(PartialBistConfig(
            n_bits=6, q=3, dnl_spec_lsb=1.0, transition_noise_lsb=0.03,
            seed=5)),
    ], ids=["full", "partial"])
    def test_unseeded_noisy_chips_use_the_configured_seed(self, engine):
        """``rng=None`` falls back to ``config.seed``, as every other
        entry point does, instead of drawing OS entropy."""
        wafer = Wafer.draw(WaferSpec(n_devices=64), rng=3)
        seeded = engine.run_chips(wafer, 4, rng=5)
        for _ in range(3):
            unseeded = engine.run_chips(wafer, 4)
            np.testing.assert_array_equal(unseeded.converter_passed,
                                          seeded.converter_passed)
            np.testing.assert_array_equal(unseeded.result_registers,
                                          seeded.result_registers)


class TestBatchDeglitchEdgeCases:
    """Degenerate streams must behave exactly like the scalar filter."""

    @pytest.mark.parametrize("mode,depth", [("hysteresis", 1),
                                            ("hysteresis", 4),
                                            ("majority", 1),
                                            ("majority", 3)])
    def test_constant_streams_pass_through(self, mode, depth):
        filt = DeglitchFilter(depth, mode)
        zeros = np.zeros((3, 40), dtype=np.int8)
        ones = np.ones((3, 40), dtype=np.int8)
        np.testing.assert_array_equal(batch_deglitch(zeros, filt), zeros)
        np.testing.assert_array_equal(batch_deglitch(ones, filt), ones)

    @pytest.mark.parametrize("mode", ["hysteresis", "majority"])
    @pytest.mark.parametrize("value", [0, 1])
    def test_single_sample_streams(self, mode, value):
        filt = DeglitchFilter(3, mode)
        streams = np.full((4, 1), value, dtype=np.int8)
        got = batch_deglitch(streams, filt)
        assert got.shape == (4, 1)
        for d in range(4):
            np.testing.assert_array_equal(got[d], filt.apply(streams[d]))

    @pytest.mark.parametrize("mode", ["hysteresis", "majority"])
    def test_empty_streams(self, mode):
        filt = DeglitchFilter(2, mode)
        streams = np.zeros((3, 0), dtype=np.int8)
        assert batch_deglitch(streams, filt).shape == (3, 0)

    @pytest.mark.parametrize("mode", ["hysteresis", "majority"])
    def test_depth_exceeding_stream_length(self, mode):
        """A filter deeper than the record: match the scalar row for row."""
        filt = DeglitchFilter(10, mode)
        rng = np.random.default_rng(8)
        streams = (rng.random((6, 5)) < 0.5).astype(np.int8)
        got = batch_deglitch(streams, filt)
        for d in range(streams.shape[0]):
            np.testing.assert_array_equal(got[d], filt.apply(streams[d]))

    def test_depth_zero_normalises_values(self):
        filt = DeglitchFilter(0)
        streams = np.array([[0, 3, 0, -2, 5]], dtype=np.int64)
        np.testing.assert_array_equal(batch_deglitch(streams, filt),
                                      [[0, 1, 0, 1, 1]])

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            batch_deglitch(np.zeros(10), DeglitchFilter(2))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    def test_hysteresis_random_streams_every_depth(self, depth):
        """The vectorised hysteresis must equal the scalar state machine
        row for row at every filter depth."""
        rng = np.random.default_rng(depth)
        streams = (rng.random((25, 180)) < 0.5).astype(np.int8)
        filt = DeglitchFilter(depth, "hysteresis")
        got = batch_deglitch(streams, filt)
        for d in range(streams.shape[0]):
            np.testing.assert_array_equal(got[d], filt.apply(streams[d]))

    def test_hysteresis_run_exactly_depth_flips(self):
        """A run of exactly ``depth`` equal samples flips the state at its
        last sample; one sample shorter never does."""
        filt = DeglitchFilter(3, "hysteresis")
        flips = np.array([[0, 0, 0, 1, 1, 1, 0, 0, 0, 0]], dtype=np.int8)
        too_short = np.array([[0, 0, 0, 1, 1, 0, 0, 0, 0, 0]],
                             dtype=np.int8)
        np.testing.assert_array_equal(batch_deglitch(flips, filt)[0],
                                      filt.apply(flips[0]))
        # The 1-run qualifies at its third sample (index 5); the trailing
        # 0-run re-qualifies at index 8 and flips the state back.
        np.testing.assert_array_equal(
            batch_deglitch(flips, filt)[0],
            [0, 0, 0, 0, 0, 1, 1, 1, 0, 0])
        np.testing.assert_array_equal(batch_deglitch(too_short, filt)[0],
                                      np.zeros(10, dtype=np.int8))

    def test_hysteresis_alternating_stream_holds_state(self):
        """Pure toggling (every run length 1) never flips a depth>=2
        filter, whichever value each row starts from."""
        filt = DeglitchFilter(2, "hysteresis")
        streams = np.array([[0, 1] * 20, [1, 0] * 20], dtype=np.int8)
        got = batch_deglitch(streams, filt)
        np.testing.assert_array_equal(got[0], np.zeros(40, dtype=np.int8))
        np.testing.assert_array_equal(got[1], np.ones(40, dtype=np.int8))
        for d in range(2):
            np.testing.assert_array_equal(got[d], filt.apply(streams[d]))

    def test_hysteresis_same_value_retrigger_is_harmless(self):
        """Two qualifying runs of the same value with a short opposite
        run between them must not disturb the state."""
        filt = DeglitchFilter(3, "hysteresis")
        stream = np.array([[0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1]],
                          dtype=np.int8)
        np.testing.assert_array_equal(batch_deglitch(stream, filt)[0],
                                      filt.apply(stream[0]))
