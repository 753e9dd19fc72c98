"""Property-based tests (hypothesis) for the core data structures and maths."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.adc.transfer import (
    TransferFunction,
    code_widths_from_transitions,
    transitions_from_code_widths,
)
from repro.analysis.error_model import (
    ErrorModel,
    acceptance_probability,
    count_limits,
    delta_s_for_counter,
)
from repro.analysis.dynamic import DynamicAnalyzer, DynamicSpec
from repro.analysis.linearity import linearity_from_code_widths
from repro.analysis.montecarlo import simulate_counts
from repro.core.bist_scheme import nl_budget, qmin
from repro.core.counter import SaturatingCounter
from repro.core.engine import BistConfig
from repro.core.deglitch import DeglitchFilter
from repro.core.kernel import (
    batch_msb_reference,
    batch_quantise_rows,
    code_change_events,
    code_dtype,
    event_msb_mismatch,
)
from repro.core.lsb_processor import LsbProcessor
from repro.core.limits import CountLimits
from repro.core.partial_engine import PartialBistConfig
from repro.production import (
    BatchBistEngine,
    BatchDynamicSuite,
    BatchHistogramTest,
    BatchPartialBistEngine,
    ExecutionPlan,
    Wafer,
    WaferSpec,
)
from repro.production.batch_engine import deglitch_edges


# --------------------------------------------------------------------------- #
# Transfer-function geometry
# --------------------------------------------------------------------------- #

@st.composite
def code_width_vectors(draw, n_bits=st.integers(min_value=2, max_value=7)):
    """Random positive code-width vectors for a random resolution."""
    bits = draw(n_bits)
    n_widths = (1 << bits) - 2
    widths = draw(hnp.arrays(
        dtype=float, shape=n_widths,
        elements=st.floats(min_value=0.01, max_value=3.0,
                           allow_nan=False, allow_infinity=False)))
    return bits, widths


class TestTransferFunctionProperties:
    @given(code_width_vectors())
    @settings(max_examples=60, deadline=None)
    def test_width_transition_round_trip(self, data):
        bits, widths_lsb = data
        lsb = 1.0 / (1 << bits)
        tf = TransferFunction.from_code_widths(bits, widths_lsb * lsb)
        assert np.allclose(tf.code_widths_lsb, widths_lsb, rtol=1e-9,
                           atol=1e-9)

    @given(code_width_vectors())
    @settings(max_examples=60, deadline=None)
    def test_transitions_are_cumulative_widths(self, data):
        bits, widths_lsb = data
        transitions = transitions_from_code_widths(widths_lsb,
                                                   first_transition=0.5)
        recovered = code_widths_from_transitions(transitions)
        assert np.allclose(recovered, widths_lsb, rtol=1e-9, atol=1e-9)

    @given(code_width_vectors())
    @settings(max_examples=60, deadline=None)
    def test_conversion_is_monotone_for_monotone_curves(self, data):
        bits, widths_lsb = data
        lsb = 1.0 / (1 << bits)
        tf = TransferFunction.from_code_widths(bits, widths_lsb * lsb)
        voltages = np.linspace(-0.5, tf.transitions[-1] + 0.5, 257)
        codes = tf.convert(voltages)
        assert np.all(np.diff(codes) >= 0)
        assert codes.min() >= 0
        assert codes.max() <= tf.n_codes - 1

    @given(code_width_vectors())
    @settings(max_examples=60, deadline=None)
    def test_inl_is_cumsum_of_dnl(self, data):
        bits, widths_lsb = data
        lsb = 1.0 / (1 << bits)
        tf = TransferFunction.from_code_widths(bits, widths_lsb * lsb)
        assert np.allclose(tf.inl(), np.cumsum(tf.dnl()), atol=1e-9)

    @given(code_width_vectors(),
           st.floats(min_value=-0.1, max_value=0.1),
           st.floats(min_value=0.8, max_value=1.2))
    @settings(max_examples=40, deadline=None)
    def test_endpoint_dnl_invariant_under_offset_and_gain(self, data, shift,
                                                          gain):
        bits, widths_lsb = data
        lsb = 1.0 / (1 << bits)
        tf = TransferFunction.from_code_widths(bits, widths_lsb * lsb)
        transformed = tf.shifted(shift).scaled(gain)
        assert np.allclose(transformed.dnl(), tf.dnl(), atol=1e-7)


class TestLinearityProperties:
    @given(hnp.arrays(dtype=float, shape=st.integers(2, 100),
                      elements=st.floats(0.01, 3.0)))
    @settings(max_examples=60, deadline=None)
    def test_endpoint_dnl_sums_to_zero(self, widths):
        result = linearity_from_code_widths(widths)
        assert result.dnl_lsb.sum() == pytest.approx(0.0, abs=1e-6)
        # Consequently the INL returns to zero at the top of the range.
        assert result.inl_lsb[-1] == pytest.approx(0.0, abs=1e-6)

    @given(hnp.arrays(dtype=float, shape=st.integers(2, 100),
                      elements=st.floats(0.01, 3.0)),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_dnl_is_scale_invariant(self, widths, scale):
        a = linearity_from_code_widths(widths)
        b = linearity_from_code_widths(widths * scale)
        assert np.allclose(a.dnl_lsb, b.dnl_lsb, atol=1e-7)


# --------------------------------------------------------------------------- #
# Error-model mathematics
# --------------------------------------------------------------------------- #

class TestErrorModelProperties:
    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.01, max_value=0.3),
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_acceptance_probability_is_a_probability(self, width, ds, i_min,
                                                     extra):
        h = acceptance_probability(width, ds, i_min, i_min + extra)
        assert 0.0 <= float(h) <= 1.0

    @given(st.floats(min_value=0.01, max_value=0.3),
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_acceptance_probability_monotone_on_ramps(self, ds, i_min, extra):
        i_max = i_min + extra
        rising = np.linspace((i_min - 1) * ds, i_min * ds, 20)
        falling = np.linspace(i_max * ds, (i_max + 1) * ds, 20)
        h_rising = acceptance_probability(rising, ds, i_min, i_max)
        h_falling = acceptance_probability(falling, ds, i_min, i_max)
        assert np.all(np.diff(h_rising) >= -1e-12)
        assert np.all(np.diff(h_falling) <= 1e-12)

    @given(st.floats(min_value=0.005, max_value=0.4),
           st.floats(min_value=0.1, max_value=1.5))
    @settings(max_examples=100, deadline=None)
    def test_count_limits_bracket_the_spec_window(self, ds, spec):
        try:
            i_min, i_max = count_limits(ds, spec)
        except ValueError:
            assume(False)
        dv_min = max(0.0, 1.0 - spec)
        dv_max = 1.0 + spec
        assert i_min * ds >= dv_min - 1e-9
        assert i_max * ds <= dv_max + 1e-9

    @given(st.integers(min_value=3, max_value=10),
           st.floats(min_value=0.1, max_value=1.5))
    @settings(max_examples=60, deadline=None)
    def test_delta_s_uses_full_counter_range(self, bits, spec):
        ds = delta_s_for_counter(bits, spec)
        i_min, i_max = count_limits(ds, spec, counter_max=1 << bits)
        assert i_max == 1 << bits

    @given(st.integers(min_value=4, max_value=9),
           st.floats(min_value=0.3, max_value=1.2),
           st.floats(min_value=0.05, max_value=0.35))
    @settings(max_examples=40, deadline=None)
    def test_per_code_probabilities_consistent(self, bits, spec, sigma):
        from repro.analysis.distributions import CodeWidthDistribution
        model = ErrorModel(distribution=CodeWidthDistribution(sigma),
                           dnl_spec_lsb=spec, counter_bits=bits)
        pc = model.per_code()
        assert 0.0 <= pc.p_good <= 1.0
        assert 0.0 <= pc.p_accept <= 1.0 + 1e-9
        assert pc.p_good_and_accept <= pc.p_good + 1e-12
        assert pc.p_good_and_accept <= pc.p_accept + 1e-12
        assert pc.type_i >= 0.0
        assert pc.type_ii >= 0.0


# --------------------------------------------------------------------------- #
# Counting process
# --------------------------------------------------------------------------- #

class TestCountingProperties:
    @given(hnp.arrays(dtype=float, shape=(5, 20),
                      elements=st.floats(0.0, 3.0)),
           st.floats(min_value=0.02, max_value=0.5),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sequential_counts_sum_to_total_samples_in_span(self, widths, ds,
                                                            seed):
        counts = simulate_counts(widths, ds, phase_model="sequential",
                                 rng=seed)
        span = widths.sum(axis=1)
        assert np.all(np.abs(counts.sum(axis=1) - span / ds) <= 1.0 + 1e-9)

    @given(hnp.arrays(dtype=float, shape=(3, 15),
                      elements=st.floats(0.0, 3.0)),
           st.floats(min_value=0.02, max_value=0.5),
           st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.sampled_from(["sequential", "independent"]))
    @settings(max_examples=60, deadline=None)
    def test_counts_bracket_true_width(self, widths, ds, seed, phase_model):
        counts = simulate_counts(widths, ds, phase_model=phase_model,
                                 rng=seed)
        expected = widths / ds
        assert np.all(counts >= np.floor(expected) - 1e-9)
        assert np.all(counts <= np.ceil(expected) + 1e-9)

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=10000))
    @settings(max_examples=100, deadline=None)
    def test_counter_reading_never_exceeds_effective_max(self, bits, events):
        counter = SaturatingCounter(bits)
        reading = counter.count_events(events)
        assert 0 <= reading <= counter.effective_max
        if events <= counter.max_value:
            assert reading == events

    @given(hnp.arrays(dtype=np.int8, shape=st.integers(2, 400),
                      elements=st.integers(0, 1)),
           st.integers(min_value=1, max_value=4),
           st.sampled_from(["hysteresis", "majority"]))
    @settings(max_examples=80, deadline=None)
    def test_deglitch_never_increases_toggles(self, stream, depth, mode):
        filt = DeglitchFilter(depth=depth, mode=mode)
        assert (filt.count_toggles(filt.apply(stream))
                <= filt.count_toggles(stream))

    @given(hnp.arrays(dtype=np.int8, shape=st.integers(2, 400),
                      elements=st.integers(0, 1)),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_deglitch_output_is_binary_and_same_length(self, stream, depth):
        filtered = DeglitchFilter(depth=depth).apply(stream)
        assert filtered.size == stream.size
        assert set(np.unique(filtered)).issubset({0, 1})

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                    max_size=30),
           st.integers(min_value=4, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_lsb_processor_recovers_exact_segment_lengths(self, counts, bits):
        limits = CountLimits.for_counter(bits, dnl_spec_lsb=1.0,
                                         delta_s_lsb=0.05)
        stream = []
        level = 0
        stream.extend([level] * 3)
        level ^= 1
        for count in counts:
            stream.extend([level] * count)
            level ^= 1
        stream.extend([level] * 3)
        result = LsbProcessor(limits).process(np.array(stream, dtype=np.int8))
        assert list(result.counts) == counts


# --------------------------------------------------------------------------- #
# Stream-path kernels: quantiser, edge-list deglitch, event MSB check
# --------------------------------------------------------------------------- #

def _toggles(streams: np.ndarray):
    """Toggle list ``(device, sample)`` of a 0/1 stream matrix."""
    dev, col = np.nonzero(streams[:, 1:] != streams[:, :-1])
    return dev, col + 1


class TestStreamKernelProperties:
    @given(st.integers(1, 5), st.integers(1, 15), st.integers(1, 300),
           st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.0]),
           st.sampled_from(["ramp", "sine"]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_quantiser_equals_thermometer_count(self, n_devices, n_levels,
                                                n_samples, sigma, kind,
                                                shuffled, seed):
        """Every element is the count of transitions at or below it, for
        monotone and shuffled (non-monotone) rows, voltages sitting exactly
        on a transition, and noise up to 2 LSB (multi-step corrections)."""
        rng = np.random.default_rng(seed)
        levels = (np.arange(1.0, n_levels + 1)
                  + rng.normal(0.0, 0.3, (n_devices, n_levels)))
        if shuffled:
            levels = rng.permuted(levels, axis=1)
        phase = np.linspace(0.0, 1.0, n_samples)
        stimulus = (-1.0 + (n_levels + 2) * phase if kind == "ramp"
                    else (n_levels + 1) / 2 * (1 + np.sin(9.0 * phase)))
        voltages = stimulus + rng.normal(0.0, sigma, (n_devices, n_samples))
        hits = rng.random((n_devices, n_samples)) < 0.05
        rows = np.nonzero(hits)[0]
        voltages[hits] = levels[rows, rng.integers(0, n_levels, rows.size)]
        expected = np.stack([(voltages[d][:, None] >= levels[d]).sum(axis=1)
                             for d in range(n_devices)])
        codes = batch_quantise_rows(levels, voltages, stimulus)
        assert codes.dtype == code_dtype(n_levels + 1)
        out = np.full_like(codes, -1)
        assert batch_quantise_rows(levels, voltages, stimulus,
                                   out=out) is out
        np.testing.assert_array_equal(codes, expected)
        np.testing.assert_array_equal(out, expected)

    @given(st.integers(1, 6), st.integers(1, 120),
           st.floats(min_value=0.02, max_value=0.98),
           st.integers(0, 5), st.sampled_from(["hysteresis", "majority"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_edge_list_deglitch_equals_scalar_filter(self, n_devices,
                                                     n_samples, p_one, depth,
                                                     mode, seed):
        rng = np.random.default_rng(seed)
        streams = (rng.random((n_devices, n_samples)) < p_one).astype(np.int8)
        filt = DeglitchFilter(depth, mode)
        dev, t = deglitch_edges(*_toggles(streams), streams[:, 0],
                                n_samples, filt)
        expected = np.stack([filt.apply(row) for row in streams])
        want_dev, want_t = _toggles(expected)
        np.testing.assert_array_equal(dev, want_dev)
        np.testing.assert_array_equal(t, want_t)

    @given(st.integers(1, 5), st.integers(1, 150), st.integers(1, 2),
           st.integers(0, 1), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_event_msb_check_equals_matrix_counter(self, n_devices,
                                                   n_samples, q, tolerance,
                                                   own_clock, seed):
        rng = np.random.default_rng(seed)
        steps = rng.choice([-2, -1, 0, 0, 0, 1, 1, 2],
                           size=(n_devices, n_samples))
        codes = np.abs(np.cumsum(steps, axis=1)) + rng.integers(
            0, 8, (n_devices, 1))
        clock = ((rng.random((n_devices, n_samples)) < 0.5).astype(np.int8)
                 if own_clock else (codes >> (q - 1)) & 1)
        upper, reference, _ = batch_msb_reference(codes, q, clock=clock)
        expected = (np.abs(upper - reference) > tolerance).any(axis=1)
        dev, t = code_change_events(codes)
        falls = np.nonzero((clock[:, :-1] == 1) & (clock[:, 1:] == 0))
        got = event_msb_mismatch(codes[:, 0], dev, t, codes[dev, t],
                                 falls[0], falls[1] + 1, q, tolerance)
        np.testing.assert_array_equal(got, expected)


# --------------------------------------------------------------------------- #
# Partial-BIST partition
# --------------------------------------------------------------------------- #

class TestQminProperties:
    @given(st.floats(min_value=1e-3, max_value=1e5),
           st.floats(min_value=1e3, max_value=1e8),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=150, deadline=None)
    def test_qmin_within_bounds(self, f_stim, f_sample, n_bits):
        q = qmin(f_stim, f_sample, n_bits)
        assert 1 <= q <= n_bits

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e3, max_value=1e8),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_qmin_monotone_in_stimulus_frequency(self, f_stim, f_sample,
                                                 n_bits):
        q_slow = qmin(f_stim, f_sample, n_bits)
        q_fast = qmin(f_stim * 4.0, f_sample, n_bits)
        assert q_fast >= q_slow

    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=100, deadline=None)
    def test_nl_budget_is_bounded_by_both_terms(self, q, dnl, inl):
        budget = nl_budget(q, dnl, inl)
        assert budget <= dnl * 2 ** (q - 1) + 1e-12
        assert budget <= inl * 2 + 1e-12


# --------------------------------------------------------------------------- #
# Engine skeleton: chunk and shard geometry
# --------------------------------------------------------------------------- #

#: Dies of the property wafer; every geometry is drawn within [1, N_DIES].
N_DIES = 48


def _engine(kind: str, noise: float):
    """One of the four batch engines on a 6-bit converter.

    The full BIST screens at ±0.5 LSB, where two dies in three fail a
    code, so its per-device stop codes vary across the wafer.
    """
    if kind == "full":
        return BatchBistEngine(BistConfig(
            n_bits=6, dnl_spec_lsb=0.5, transition_noise_lsb=noise,
            deglitch_depth=3 if noise > 0 else 0, seed=21))
    if kind == "partial":
        return BatchPartialBistEngine(PartialBistConfig(
            n_bits=6, q=2, dnl_spec_lsb=1.0, transition_noise_lsb=noise,
            seed=21))
    if kind == "histogram":
        return BatchHistogramTest(samples_per_code=16.0,
                                  transition_noise_lsb=noise, seed=21)
    return BatchDynamicSuite(analyzer=DynamicAnalyzer(n_samples=512),
                             spec=DynamicSpec(min_enob=5.0),
                             transition_noise_lsb=noise, seed=21)


_GEOMETRY_CACHE: dict = {}


def _reference(kind: str, noise: float, plan):
    """The default-chunk run of the whole wafer (cached per case)."""
    key = (kind, noise, plan)
    if key not in _GEOMETRY_CACHE:
        wafer = Wafer.draw(WaferSpec(n_bits=6, n_devices=N_DIES), rng=8)
        engine = _engine(kind, noise)
        _GEOMETRY_CACHE[key] = (wafer, engine,
                                engine.run_wafer(wafer, plan=plan))
    return _GEOMETRY_CACHE[key]


def _assert_leading_rows(whole, part, n_dies: int) -> None:
    """``part`` is ``whole`` restricted to its first ``n_dies`` devices."""
    assert part.n_devices == n_dies
    for field in dataclasses.fields(whole):
        a, b = getattr(whole, field.name), getattr(part, field.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a[:n_dies], b, err_msg=field.name)
        elif field.name != "n_devices":
            assert a == b, field.name


ENGINE_KINDS = ["full", "partial", "histogram", "dynamic"]


def _run(kind: str, engine, wafer: Wafer, plan):
    """The planless or planned run of one engine kind (``"chips"``:
    the full BIST's chip mode, four converters per chip)."""
    if kind == "chips":
        return engine.run_chips(wafer, 4, plan=plan)
    return engine.run_wafer(wafer, plan=plan)


def _assert_identical(a, b) -> None:
    """Two results equal field for field (NaNs positionally)."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=field.name)
        else:
            assert x == y, field.name


class TestEngineGeometryProperties:
    """The skeleton's chunk loop and shared noise buffers are invisible:
    any chunk size gives the default chunk's result, and any plan gives
    the planless result."""

    @given(st.sampled_from(ENGINE_KINDS + ["chips"]), st.booleans(),
           st.sampled_from([1, 2]), st.integers(1, N_DIES),
           st.integers(1, N_DIES))
    @settings(max_examples=60, deadline=None)
    def test_planless_run_equals_every_plan(self, kind, noisy, workers,
                                            chunk, shard):
        noise = 0.05 if noisy else 0.0
        wafer = Wafer.draw(WaferSpec(n_bits=6, n_devices=N_DIES), rng=8)
        engine = _engine("full" if kind == "chips" else kind, noise)
        key = (kind, noise, "planless")
        if key not in _GEOMETRY_CACHE:
            _GEOMETRY_CACHE[key] = _run(kind, engine, wafer, None)
        plan = ExecutionPlan(workers=workers, chunk_size=chunk,
                             shard_devices=shard)
        _assert_identical(_GEOMETRY_CACHE[key],
                          _run(kind, engine, wafer, plan))

    @given(st.sampled_from(ENGINE_KINDS), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_noisy_chunk_size_never_changes_a_result(self, kind, planned,
                                                     data):
        plan = ExecutionPlan(workers=1, shard_devices=16) if planned \
            else None
        wafer, engine, whole = _reference(kind, 0.05, plan)
        n_dies = data.draw(st.integers(1, N_DIES), label="n_dies")
        chunk = data.draw(st.integers(1, n_dies), label="chunk_size")
        part = engine.run_transitions(
            wafer.transitions[:n_dies], full_scale=wafer.spec.full_scale,
            sample_rate=wafer.spec.sample_rate, chunk_size=chunk,
            plan=plan)
        _assert_leading_rows(whole, part, n_dies)

    @given(st.sampled_from(ENGINE_KINDS), st.integers(1, N_DIES),
           st.integers(1, N_DIES))
    @settings(max_examples=30, deadline=None)
    def test_noise_free_shard_size_never_changes_a_result(self, kind, shard,
                                                          chunk):
        wafer, engine, whole = _reference(kind, 0.0, None)
        part = engine.run_wafer(wafer, plan=ExecutionPlan(
            workers=1, chunk_size=chunk, shard_devices=shard))
        _assert_leading_rows(whole, part, N_DIES)


#: (method, q) screening stations of the line property; sprt rides on
#: the full BIST only.
LINE_STATIONS = [("bist", None), ("bist", 2), ("histogram", None),
                 ("dynamic", None)]


def _line_case(method, q, noisy, excursion, flow):
    """A two-wafer lot, its line and the planless report (cached)."""
    key = ("line", method, q, noisy, excursion, flow)
    if key not in _GEOMETRY_CACHE:
        from repro.campaign import Scenario
        from repro.production import ScreeningLine

        full_bist = method == "bist" and q is None
        scenario = Scenario(
            method=method, q=q, n_bits=6, n_devices=N_DIES, n_wafers=2,
            transition_noise_lsb=0.05 if noisy else 0.0,
            deglitch_depth=3 if noisy and full_bist else 0,
            retest_attempts=1, excursion=excursion, flow=flow)
        line = ScreeningLine(scenario)
        lot = scenario.draw_lot(seed=5, lot_id="PROP")
        report = line.screen_lot(lot, rng=9)
        _GEOMETRY_CACHE[key] = (line, lot,
                                dataclasses.replace(report, wall_seconds=0.0))
    return _GEOMETRY_CACHE[key]


class TestScreenLotGeometryProperties:
    """A screening's report is the planless one under every plan.

    Under ``flow="sprt"`` the shard size is the SPC monitor's subgroup
    size, a policy input, so only workers and chunk size vary there.
    """

    @given(st.sampled_from(LINE_STATIONS), st.booleans(),
           st.sampled_from([None, "drift", "spatial", "burst"]),
           st.sampled_from([1, 2]), st.integers(1, N_DIES),
           st.integers(1, N_DIES))
    @settings(max_examples=30, deadline=None)
    def test_fixed_flow_report_equals_every_plan(self, station, noisy,
                                                 excursion, workers, chunk,
                                                 shard):
        line, lot, reference = _line_case(*station, noisy, excursion,
                                          "fixed")
        report = line.screen_lot(lot, rng=9, plan=ExecutionPlan(
            workers=workers, chunk_size=chunk, shard_devices=shard))
        assert dataclasses.replace(report, wall_seconds=0.0) == reference

    @given(st.booleans(), st.sampled_from([None, "drift", "spatial",
                                           "burst"]),
           st.sampled_from([1, 2]), st.integers(1, N_DIES))
    @settings(max_examples=16, deadline=None)
    def test_sprt_flow_report_equals_every_plan(self, noisy, excursion,
                                                workers, chunk):
        line, lot, reference = _line_case("bist", None, noisy, excursion,
                                          "sprt")
        report = line.screen_lot(lot, rng=9, plan=ExecutionPlan(
            workers=workers, chunk_size=chunk))
        assert dataclasses.replace(report, wall_seconds=0.0) == reference

    @given(st.booleans(), st.sampled_from([None, "drift", "spatial",
                                           "burst"]),
           st.sampled_from([1, 2]), st.integers(1, N_DIES))
    @settings(max_examples=16, deadline=None)
    def test_sprt_flow_keeps_the_fixed_verdicts(self, noisy, excursion,
                                                workers, chunk):
        """The sequential station changes no verdict: a wafer the SPC
        monitor lets finish ends with the fixed flow's accept mask, and
        an aborted wafer keeps the fixed first pass on its tested prefix
        and rejects its tail."""
        plan = ExecutionPlan(workers=workers, chunk_size=chunk)
        line, lot, _ = _line_case("bist", None, noisy, excursion, "fixed")
        fixed, fixed_first, fixed_done = _screen_masks(line, lot, plan)
        line, _, _ = _line_case("bist", None, noisy, excursion, "sprt")
        sprt, _, sprt_done = _screen_masks(line, lot, plan)
        assert fixed_done == [None] * len(lot)
        start = 0
        for wafer, first, done in zip(lot, fixed_first, sprt_done):
            stop = start + len(wafer)
            if done is None:
                np.testing.assert_array_equal(sprt[start:stop],
                                              fixed[start:stop])
            else:
                np.testing.assert_array_equal(sprt[start:start + done],
                                              first[:done])
                assert not sprt[start + done:stop].any()
            start = stop


def _screen_masks(line, lot, plan):
    """Screen ``lot`` and return its final accept mask, and per wafer the
    first-pass verdicts and the devices tested before an SPC abort
    (``None`` for a wafer that finished)."""
    from unittest import mock

    import repro.production.line as line_module
    from repro.production.execution import ExcursionAbort

    finals, first_pass, done = [], [], []
    make_result = line_module.PopulationBistResult
    run_wafer = type(line.engine).run_wafer

    def recording_result(**kwargs):
        finals.append(kwargs["accepted"])
        return make_result(**kwargs)

    def recording_run(engine, wafer, **kwargs):
        try:
            result = run_wafer(engine, wafer, **kwargs)
        except ExcursionAbort as exc:
            first_pass.append(exc.partial.passed)
            done.append(int(exc.devices_done))
            raise
        first_pass.append(result.passed)
        done.append(None)
        return result

    with mock.patch.object(line_module, "PopulationBistResult",
                           recording_result), \
            mock.patch.object(type(line.engine), "run_wafer",
                              recording_run):
        line.screen_lot(lot, rng=9, plan=plan)
    return finals[0], first_pass, done


#: Line stations of the scenario-reading property: (method, noisy, flow).
READ_STATIONS = [("bist", False, "fixed"), ("bist", True, "fixed"),
                 ("histogram", False, "fixed"), ("bist", False, "sprt")]


def _read_case(method, noisy, flow, n_dies):
    """A station's scenario, a lot of ``n_dies`` and its report (cached)."""
    key = ("read", method, noisy, flow, n_dies)
    if key not in _GEOMETRY_CACHE:
        from repro.campaign import Scenario
        from repro.production import ScreeningLine

        scenario = Scenario(
            method=method, dnl_spec_lsb=0.5, retest_attempts=1, flow=flow,
            transition_noise_lsb=0.05 if noisy else 0.0,
            deglitch_depth=3 if noisy else 0)
        lot = Scenario(n_devices=n_dies).draw_lot(seed=5, lot_id="READ")
        report = ScreeningLine(scenario).screen_lot(lot, rng=9)
        _GEOMETRY_CACHE[key] = (scenario, lot, dataclasses.replace(
            report, wall_seconds=0.0))
    return _GEOMETRY_CACHE[key]


class TestLineReadsItsStations:
    """A line screens the lot it is handed under the ``rng`` it is given.

    The scenario fields that describe the lot the scenario would draw,
    and its seed, must not reach the report of any station.  The process
    sigma does under ``flow="sprt"`` (the SPC centre is derived from it),
    so only the fixed flow varies it.
    """

    @given(st.integers(64, 128), st.integers(1, 4096), st.integers(1, 3),
           st.sampled_from(["flash", "sar", "pipeline"]),
           st.none() | st.integers(0, 2**32 - 1),
           st.none() | st.text(max_size=6),
           st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def test_report_ignores_the_lot_fields(self, n_dies, n_devices,
                                           n_wafers, architecture, seed,
                                           label, sigma):
        from repro.production import ScreeningLine

        changes = dict(n_devices=n_devices, n_wafers=n_wafers,
                       architecture=architecture, seed=seed, label=label)
        for method, noisy, flow in READ_STATIONS:
            scenario, lot, reference = _read_case(method, noisy, flow,
                                                  n_dies)
            fields = dict(changes)
            if flow == "fixed":
                fields["sigma_code_width_lsb"] = sigma
            line = ScreeningLine(scenario.derive(**fields))
            report = line.screen_lot(lot, rng=9)
            assert dataclasses.replace(report, wall_seconds=0.0) == \
                reference, (method, noisy, flow)
