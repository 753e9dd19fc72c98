"""Exactness of the two per-die kernels of noise-free screening.

``shared_crossing_indices`` guesses each crossing index from the ramp
equation and keeps the guess only when it passes the definition of a left
``searchsorted``; ``batch_max_dnl``/``batch_max_inl`` reduce rows in
cache-sized blocks.  Both must equal their one-line references bit for
bit, on the ramps the engines build and on the inputs that make a guess
miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc.transfer import (
    SCORING_BLOCK,
    batch_dnl_from_transitions,
    batch_max_dnl,
    batch_max_inl,
)
from repro.core.kernel import _uniform_ramp_step, shared_crossing_indices
from repro.signals import RampStimulus


def _engine_ramp(start, slope, fs, n, bow=0.0):
    """The stimulus as the engines sample it: ``voltage(arange(n) / fs)``."""
    ramp = RampStimulus(slope=slope, start_voltage=start, nonlinearity=bow,
                        duration=n / fs if bow else None)
    return ramp.voltage(np.arange(n) / fs)


def _probe_levels(voltages, rng, n_levels):
    """Levels on, one ulp either side of, and outside the sampled ramp."""
    picks = voltages[rng.integers(0, voltages.size, n_levels)]
    step = voltages[-1] - voltages[-2]
    return np.concatenate([
        picks,
        np.nextafter(picks, -np.inf),
        np.nextafter(picks, np.inf),
        rng.uniform(voltages[0], voltages[-1], n_levels),
        voltages[0] - step * rng.uniform(0.0, 3.0, 3),
        [np.nextafter(voltages[0], -np.inf), voltages[0], voltages[-1],
         np.nextafter(voltages[-1], np.inf)],
        voltages[-1] + step * rng.uniform(0.0, 3.0, 3),
    ])


ramps = st.tuples(
    st.floats(-2.0, 2.0),                    # start voltage
    st.floats(1e-3, 1e3),                    # slope, V/s
    st.floats(1e2, 1e7),                     # sample rate
    st.integers(8, 5000),                    # samples
    st.sampled_from([0.0, 0.0, 1e-5, 0.02]),  # bow: none, mild, strong
)


class TestSharedCrossingIndices:
    @given(ramps, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_searchsorted_on_engine_ramps(self, ramp, seed):
        start, slope, fs, n, bow = ramp
        voltages = _engine_ramp(start, slope, fs, n, bow)
        rng = np.random.default_rng(seed)
        levels = _probe_levels(voltages, rng, 40)
        transitions = rng.permutation(levels).reshape(1, -1)
        np.testing.assert_array_equal(
            shared_crossing_indices(transitions, voltages),
            np.searchsorted(voltages, transitions))

    def test_bowed_ramp_takes_the_fallback(self):
        voltages = _engine_ramp(-0.1, 2e3, 1e6, 600, bow=0.02)
        assert _uniform_ramp_step(voltages) is None
        rng = np.random.default_rng(4)
        transitions = _probe_levels(voltages, rng, 63).reshape(2, -1)
        np.testing.assert_array_equal(
            shared_crossing_indices(transitions, voltages),
            np.searchsorted(voltages, transitions))

    def test_non_finite_levels_match_searchsorted(self):
        voltages = _engine_ramp(-0.6, 1.2e3, 4e6, 4369)
        assert _uniform_ramp_step(voltages) is not None
        transitions = np.array([[np.nan, -np.inf, np.inf, 0.0, np.nan]])
        np.testing.assert_array_equal(
            shared_crossing_indices(transitions, voltages),
            np.searchsorted(voltages, transitions))

    def test_many_blocks_keep_the_row_layout(self):
        voltages = _engine_ramp(-0.6, 1.2e3, 4e6, 4369)
        rng = np.random.default_rng(9)
        transitions = np.sort(rng.uniform(-0.7, 0.7, (1500, 63)), axis=1)
        crossing = shared_crossing_indices(transitions, voltages)
        assert crossing.shape == transitions.shape
        np.testing.assert_array_equal(
            crossing, np.searchsorted(voltages, transitions))


def _awkward_wafer(n_devices, n_transitions, seed):
    """Transition rows with zero, negative and non-finite mean widths."""
    rng = np.random.default_rng(seed)
    widths = rng.normal(1.0, 0.3, (n_devices, n_transitions - 1))
    transitions = np.concatenate(
        [np.zeros((n_devices, 1)), np.cumsum(widths, axis=1)], axis=1)
    transitions[3] = 0.25                  # zero mean width
    transitions[7] = -transitions[7]       # negative mean width
    transitions[11, 5] = np.nan
    transitions[13, 2] = np.inf
    transitions[17, -1] = -np.inf
    transitions[-1, 0] = np.nan            # inside the last block
    return transitions


class TestBlockwiseTruthScoring:
    @pytest.mark.parametrize("n_devices", [2500, None])
    def test_blocks_equal_the_whole_matrix_bit_for_bit(self, n_devices):
        n_transitions = 63
        rows = SCORING_BLOCK // n_transitions
        # None: one row more than a block, so the last block has one row.
        n_devices = rows + 1 if n_devices is None else n_devices
        assert n_devices > rows
        transitions = _awkward_wafer(n_devices, n_transitions, seed=5)
        with np.errstate(all="ignore"):
            dnl = batch_dnl_from_transitions(transitions)
            want_dnl = np.abs(dnl).max(axis=1)
            want_inl = np.abs(np.cumsum(dnl, axis=1)).max(axis=1)
            got_dnl = batch_max_dnl(transitions)
            got_inl = batch_max_inl(transitions)
        assert got_dnl.tobytes() == want_dnl.tobytes()
        assert got_inl.tobytes() == want_inl.tobytes()
        assert np.isnan(got_dnl[[3, 11, -1]]).all()

    def test_rejects_what_the_dnl_matrix_rejects(self):
        with pytest.raises(ValueError):
            batch_max_dnl(np.zeros((4, 1)))
        with pytest.raises(ValueError):
            batch_max_inl(np.zeros(5))
        assert batch_max_dnl(np.zeros((0, 63))).shape == (0,)
