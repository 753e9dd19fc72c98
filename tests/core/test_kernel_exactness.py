"""Exactness of the per-die kernels of noise-free screening.

``shared_crossing_indices`` guesses each crossing index from the ramp
equation and keeps the guess only when the level's computed position lies
farther than a proven rounding band from any sample; ``row_steps`` takes
each row's successive differences from one flat subtraction and their
extremes along the rows; ``batch_max_dnl`` reads a die's worst |DNL| at its
narrowest or widest code, and ``batch_max_inl`` reduces full rows, both
in cache-sized blocks.  Each must equal its one-line reference bit for
bit: on the ramps the engines build, on levels placed at the band's edge
and a few ulps from samples, and on rows whose widths are zero, negative,
non-finite or cancel to a zero mean.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc.transfer import (
    SCORING_BLOCK,
    batch_dnl_from_transitions,
    batch_good_mask,
    batch_max_dnl,
    batch_max_inl,
    row_steps,
)
from repro.core.kernel import _uniform_ramp_step, shared_crossing_indices
from repro.signals import RampStimulus


def _engine_ramp(start, slope, fs, n, bow=0.0):
    """The stimulus as the engines sample it: ``voltage(arange(n) / fs)``."""
    ramp = RampStimulus(slope=slope, start_voltage=start, nonlinearity=bow,
                        duration=n / fs if bow else None)
    return ramp.voltage(np.arange(n) / fs)


def _ulps_from(values, rng):
    """Each value moved 1 to 64 ulps up or down."""
    k = rng.integers(1, 65, values.size) * rng.choice([-1, 1], values.size)
    return values + k * np.spacing(np.abs(values))


def _probe_levels(voltages, rng, n_levels):
    """Levels on, a few ulps either side of, and outside the sampled ramp,
    and (on a uniform ramp) at the rounding band's edges."""
    picks = voltages[rng.integers(0, voltages.size, n_levels)]
    step = voltages[-1] - voltages[-2]
    levels = [
        picks,
        np.nextafter(picks, -np.inf),
        np.nextafter(picks, np.inf),
        _ulps_from(picks, rng),
        _ulps_from(picks, rng),
        rng.uniform(voltages[0], voltages[-1], n_levels),
        voltages[0] - step * rng.uniform(0.0, 3.0, 3),
        [np.nextafter(voltages[0], -np.inf), voltages[0], voltages[-1],
         np.nextafter(voltages[-1], np.inf)],
        voltages[-1] + step * rng.uniform(0.0, 3.0, 3),
    ]
    ramp = _uniform_ramp_step(voltages)
    if ramp is not None:
        ramp_step, band = ramp
        g = rng.integers(0, voltages.size + 1, n_levels)
        for offset in (-band, band, -2 * band, 2 * band):
            levels.append(voltages[0] + (g + offset) * ramp_step)
    return np.concatenate(levels)


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
        if bow == 0.0:
            # The property tests the band, not the searchsorted fallback.
            ramp_step = _uniform_ramp_step(voltages)
            assert ramp_step is not None and ramp_step[1] < 0.25
        rng = np.random.default_rng(seed)
        levels = _probe_levels(voltages, rng, 40)
        transitions = rng.permutation(levels).reshape(1, -1)
        np.testing.assert_array_equal(
            shared_crossing_indices(transitions, voltages),
            np.searchsorted(voltages, transitions))

    def test_engine_ramp_band_is_narrow(self):
        # The event_lot ramp: 6 bits, 64 samples per code.
        voltages = _engine_ramp(-0.6, 1.2e3, 4e6, 4369)
        step, band = _uniform_ramp_step(voltages)
        assert 0.0 < band < 1e-9

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
        with np.errstate(invalid="raise"):
            crossing = shared_crossing_indices(transitions, voltages)
        np.testing.assert_array_equal(
            crossing, np.searchsorted(voltages, transitions))

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


#: Width kinds of one row: every width positive, some zero, every width
#: negative, both signs, non-finite entries, and widths cancelling to an
#: exactly zero mean without and with a zero width.
ROW_KINDS = ("positive", "zero", "negative", "mixed", "non-finite",
             "cancelling", "cancelling with a zero")


def _cancelling_widths(rng, n_widths, with_zero):
    """Dyadic widths summing to exactly zero in any order, all non-zero
    unless ``with_zero``."""
    widths = [0.0] if with_zero else []
    rest = n_widths - len(widths)
    if rest % 2:
        odd = [1.0, 1.0, -2.0] if rest >= 3 else [0.0]
        widths += odd
        rest -= len(odd)
    pairs = rng.integers(1, 8, rest // 2).astype(float)
    widths = np.concatenate([widths, pairs, -pairs])
    return rng.permutation(widths) * 2.0 ** -int(rng.integers(0, 12))


def _transition_row(rng, n_transitions, kind):
    """One die's transition levels whose widths are of ``kind``."""
    n_widths = n_transitions - 1
    if kind.startswith("cancelling"):
        widths = _cancelling_widths(rng, n_widths, kind.endswith("zero"))
        # Dyadic start and widths: every level, and so every width, is
        # exact, and the widths' mean is exactly zero.
        return np.concatenate([[0.5], 0.5 + np.cumsum(widths)])
    widths = rng.lognormal(0.0, 0.4, n_widths)
    if kind == "zero":
        widths[rng.random(n_widths) < 0.3] = 0.0
        widths[rng.integers(0, n_widths)] = 0.0
    elif kind == "negative":
        widths = -widths
    elif kind == "mixed":
        widths *= rng.choice([-1.0, 1.0], n_widths)
    row = np.concatenate([[rng.normal()], rng.normal() + np.cumsum(widths)])
    if kind == "non-finite":
        where = rng.integers(0, n_transitions, int(rng.integers(1, 4)))
        row[where] = rng.choice([np.nan, np.inf, -np.inf], where.size)
    return row


@st.composite
def transition_batches(draw):
    """A batch of one row, or of one scoring block plus one row (so the
    last block holds one row), of 3 to 1,023 transitions each."""
    n_transitions = draw(st.integers(3, 1023))
    kind = draw(st.sampled_from(ROW_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return _transition_row(rng, n_transitions, kind)[None, :]
    n_rows = SCORING_BLOCK // n_transitions + 1
    # Rows of every kind, drawn into the batch in random order; the
    # drawn kind also ends it, alone in the last block.
    distinct = np.array([_transition_row(rng, n_transitions, each)
                         for each in ROW_KINDS + (kind,)])
    batch = distinct[rng.integers(0, len(distinct), n_rows)]
    batch[-1] = distinct[-1]
    return batch


def _full_rows(transitions):
    """The references: max |DNL| and max |INL| over every code."""
    dnl = batch_dnl_from_transitions(transitions)
    return (np.abs(dnl).max(axis=1),
            np.abs(np.cumsum(dnl, axis=1)).max(axis=1))


class TestTruthFromExtremeWidths:
    @given(transition_batches())
    @settings(max_examples=120, deadline=None)
    def test_max_dnl_equals_the_full_row_bit_for_bit(self, transitions):
        with np.errstate(all="ignore"):
            want, _ = _full_rows(transitions)
            got = batch_max_dnl(transitions)
        assert got.tobytes() == want.tobytes()

    @given(transition_batches(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_good_mask_at_and_beside_a_die_value(self, transitions, seed):
        rng = np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            max_dnl, max_inl = _full_rows(transitions)
            for die in {0, len(transitions) - 1,
                        int(rng.integers(0, len(transitions)))}:
                inl_spec = max_inl[die]
                for spec in (np.nextafter(max_dnl[die], -np.inf),
                             max_dnl[die],
                             np.nextafter(max_dnl[die], np.inf)):
                    np.testing.assert_array_equal(
                        batch_good_mask(transitions, spec),
                        max_dnl <= spec)
                    np.testing.assert_array_equal(
                        batch_good_mask(transitions, spec, inl_spec),
                        (max_dnl <= spec) & (max_inl <= inl_spec))

    def test_zero_mean_row_with_a_zero_width_stays_nan(self):
        # Widths 1, 0, -1: the full row divides 0 by 0, the extremes
        # alone would read inf.
        transitions = np.array([[0.0, 1.0, 1.0, 0.0]])
        with np.errstate(all="ignore"):
            assert np.isnan(batch_max_dnl(transitions)).all()
            assert np.isinf(batch_max_dnl(transitions[:, [0, 1, 0]])).all()


@st.composite
def step_matrices(draw):
    """int32 or float64 matrices of 0 to 40 rows of 2 to 80 columns."""
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        info = np.iinfo(np.int32)
        return rng.integers(info.min, info.max, (rows, cols),
                            endpoint=True, dtype=np.int32)
    matrix = rng.normal(0.0, 1e3, (rows, cols))
    if rows:
        flat = matrix.reshape(-1)
        where = rng.integers(0, flat.size, int(rng.integers(0, 6)))
        flat[where] = rng.choice([np.nan, np.inf, -np.inf], where.size)
    return matrix


class TestRowSteps:
    @given(step_matrices())
    @settings(max_examples=150, deadline=None)
    def test_equals_diff_and_its_row_extremes(self, matrix):
        with np.errstate(all="ignore"):
            steps, smallest, largest = row_steps(matrix)
            want = np.diff(matrix, axis=1)
        assert steps.dtype == want.dtype and steps.shape == want.shape
        assert steps.tobytes() == want.tobytes()
        assert smallest.dtype == want.dtype == largest.dtype
        assert smallest.tobytes() == want.min(axis=1).tobytes()
        assert largest.tobytes() == want.max(axis=1).tobytes()

    def test_rows_that_only_hold_the_dtype_extremes(self):
        info = np.iinfo(np.int32)
        matrix = np.array([[0, info.max], [0, info.min]], np.int32)
        _, smallest, largest = row_steps(matrix)
        assert smallest.tolist() == [info.max, info.min]
        assert largest.tolist() == [info.max, info.min]
        _, smallest, largest = row_steps(np.array([[0.0, np.inf],
                                                   [0.0, -np.inf]]))
        assert smallest.tolist() == [np.inf, -np.inf]
        assert largest.tolist() == [np.inf, -np.inf]

    def test_rejects_rows_without_a_step(self):
        with pytest.raises(ValueError):
            row_steps(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            row_steps(np.zeros(4))
