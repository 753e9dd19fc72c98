"""Overflow safety of the kernel's compact dtypes.

The kernel stores the large persistent matrices — code matrices,
crossing-index matrices, histograms — in the smallest dtype that holds
them with ×2 headroom, while every reduction stays int64.  These tests pin
the places that could silently wrap:

* dtype *selection* at the capacity boundaries (maximum ``n_bits``,
  maximum sample counts, the uint32 histogram boundary) — pure helper
  arithmetic, so the extremes are testable without allocating the
  matrices they describe;
* end-to-end kernel values at the top of each dtype's usable range
  (codes touching the int16 ceiling's headroom, histogram counts equal
  to the full sample count), against int64 references.
"""

import numpy as np

from repro.core.kernel import (
    CHUNK_BUDGET_BYTES,
    CHUNK_CAP,
    CHUNK_FLOOR,
    auto_chunk_size,
    batch_code_histogram,
    batch_quantise_shared,
    batch_reconstruct_codes,
    batch_shared_ramp_histogram,
    code_dtype,
    hist_dtype,
    index_dtype,
    packed_crossing_events,
    shared_crossing_indices,
)

I16 = np.iinfo(np.int16).max
I32 = np.iinfo(np.int32).max
U32 = np.iinfo(np.uint32).max


class TestDtypeSelectionBoundaries:
    """Capacity boundaries of the three dtype helpers, with ×2 headroom."""

    def test_code_dtype_int16_boundary(self):
        # Largest n_levels with in-dtype ×2 headroom gets int16 …
        assert code_dtype(I16 // 2) == np.int16
        # … one more level crosses into int32.
        assert code_dtype(I16 // 2 + 1) == np.int32

    def test_code_dtype_int32_boundary(self):
        assert code_dtype(I32 // 2) == np.int32
        assert code_dtype(I32 // 2 + 1) == np.int64

    def test_code_dtype_max_n_bits(self):
        # Scenario.n_bits has no upper bound: a pathological 62-bit
        # converter must fall back to int64, never wrap.
        assert code_dtype(1 << 62) == np.int64
        for n_bits in range(2, 63):
            dtype = code_dtype(1 << n_bits)
            if dtype != np.int64:
                # Any *narrowed* dtype keeps the ×2 headroom; int64 is
                # the can't-narrow fallback, exact up to the full code
                # range.
                assert 2 * (1 << n_bits) <= np.iinfo(dtype).max
            else:
                assert (1 << n_bits) <= np.iinfo(dtype).max

    def test_index_dtype_boundaries(self):
        # Index values reach n_samples (the "past the end" sentinel),
        # so capacity is checked against n_samples + 1, doubled.
        largest_int32 = I32 // 2 - 1
        assert index_dtype(largest_int32) == np.int32
        assert index_dtype(largest_int32 + 1) == np.int64
        # With a sample count past the int32 headroom the index dtype
        # quietly returns to int64.
        assert index_dtype(I32) == np.int64
        # No int16 tier: a few-thousand-sample ramp already exceeds it.
        assert index_dtype(1 << 12) == np.int32

    def test_hist_dtype_uint32_boundary(self):
        # A single code can absorb every sample, so counts are bounded
        # by n_samples; the uint32 tier holds exactly up to U32 - 1
        # samples (count may equal n_samples + 1 is impossible, but the
        # helper keeps one step of slack for the padded column sums).
        assert hist_dtype(U32 - 1) == np.uint32
        assert hist_dtype(U32) == np.int64


class TestAutoChunkSize:
    def test_budget_division(self):
        assert auto_chunk_size(CHUNK_BUDGET_BYTES // 1000) == 1000

    def test_floor_and_cap(self):
        assert auto_chunk_size(CHUNK_BUDGET_BYTES) == CHUNK_FLOOR
        assert auto_chunk_size(1) == CHUNK_CAP

    def test_compact_rows_widen_chunks(self):
        n_samples = 4096
        int64_rows = auto_chunk_size(n_samples * 8)
        compact_rows = auto_chunk_size(n_samples * code_dtype(64).itemsize)
        assert compact_rows == 4 * int64_rows  # int16 rows are 4x smaller


def _ramp(n_samples, lo=-0.6, hi=0.6):
    return np.linspace(lo, hi, n_samples)


class TestKernelDtypesEndToEnd:
    """Compact kernels: narrowed dtypes, values equal to int64 references."""

    def test_quantise_shared_dtypes_and_values(self):
        rng = np.random.default_rng(11)
        transitions = np.sort(rng.uniform(-0.5, 0.5, size=(40, 63)), axis=1)
        voltages = _ramp(700)
        codes = batch_quantise_shared(transitions, voltages)
        reference = (voltages[None, :, None]
                     >= transitions[:, None, :]).sum(axis=2)
        assert codes.dtype == np.int16
        np.testing.assert_array_equal(codes, reference)

    def test_crossing_indices_dtype(self):
        transitions = np.array([[-0.25, 0.0, 0.25]])
        voltages = _ramp(500)
        crossing = shared_crossing_indices(transitions, voltages)
        assert crossing.dtype == np.int32
        np.testing.assert_array_equal(
            crossing, np.searchsorted(voltages, transitions))

    def test_histogram_counts_span_the_full_sample_count(self):
        # One device whose transitions all sit above the ramp: every
        # sample lands in code 0, so a count equals n_samples exactly —
        # the value a uint32 histogram must carry without wrapping.
        n_samples = 3000
        transitions = np.full((1, 3), 10.0)
        counts = batch_shared_ramp_histogram(transitions, _ramp(n_samples))
        assert counts.dtype == np.uint32
        assert int(counts[0, 0]) == n_samples
        assert int(counts.sum(dtype=np.int64)) == n_samples

    def test_code_histogram_matches_and_narrows(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 64, size=(25, 900))
        counts = batch_code_histogram(codes, 64)
        assert counts.dtype == np.uint32
        np.testing.assert_array_equal(
            counts, [np.bincount(row, minlength=64) for row in codes])

    def test_packed_events_compact_event_columns(self):
        rng = np.random.default_rng(5)
        transitions = np.sort(rng.uniform(-0.5, 0.5, size=(12, 15)), axis=1)
        crossing = np.asarray(
            shared_crossing_indices(transitions, _ramp(400)), dtype=np.int64)
        start_code, mult, times, live, n_events = packed_crossing_events(
            crossing, 400)
        assert mult.dtype == np.int16   # multiplicities
        assert times.dtype == np.int32  # event times
        for d, row in enumerate(crossing):
            inside = row[(row >= 1) & (row <= 399)]
            t, m = np.unique(inside, return_counts=True)
            assert start_code[d] == np.count_nonzero(row == 0)
            assert n_events[d] == t.size
            np.testing.assert_array_equal(times[d][live[d]], t)
            np.testing.assert_array_equal(mult[d][live[d]], m)

    def test_reconstruct_codes_headroom_at_the_int16_ceiling(self):
        # A 13-bit staircase (8192 codes → 2 * n_levels = 16384 fits
        # int16) reconstructed from its q-bit capture: the top code sits
        # right at the compaction ceiling and must survive the in-dtype
        # round trip, wrap counting included.
        n_bits, q = 13, 3
        codes = np.arange(1 << n_bits, dtype=np.int64)[None, :]
        lsb = codes & ((1 << q) - 1)
        rebuilt = batch_reconstruct_codes(lsb, q, n_bits, initial_upper=0)
        assert rebuilt.dtype == np.int16
        np.testing.assert_array_equal(rebuilt, codes)
