"""Vectorised BIST over whole wafers: one array program, no device loop.

:class:`BatchBistEngine` runs the paper's complete BIST measurement —
ramp stimulus, acquisition, deglitching, MSB functionality check and the
LSB processing block's DNL/INL decisions — across the *device axis* as pure
NumPy array operations, reproducing the scalar
:class:`~repro.core.engine.BistEngine` accept/reject decisions bit for bit.

Two execution paths are selected automatically:

**Event path** (noise-free, no deglitch filter — the paper's nominal
    Table 1/2 configuration).  With a monotone shared ramp the full
    ``(devices, samples)`` code matrix never needs to exist: the sample
    index at which each transition voltage is crossed is computed from the
    ramp equation and kept when its position lies farther than a proven
    rounding band from any sample
    (:func:`repro.core.kernel.shared_crossing_indices`, equal to a
    ``searchsorted`` of all levels into the ramp), and every downstream
    quantity — LSB edges (transitions crossed an odd number of times per
    sample), per-code sample counts, MSB reference counter — is derived
    from those ``O(devices x codes)`` crossing events.
    This is what makes the engine orders of magnitude faster than the
    scalar loop and million-device Monte-Carlo runs feasible.

**Stream path** (transition noise, stimulus noise or a deglitch filter
    configured).  Each chunk's noise is drawn into one buffer the shard
    reuses, every row from its device's keyed stream
    (:class:`repro.core.noise.DeviceNoise`), and quantised by :func:`repro.core.kernel.
    batch_quantise_rows` (the noise-free code of the shared ramp,
    corrected by vectorised ±1 steps).  From there on only the sparse
    list of code changes is processed — at 0.05 LSB of noise about one
    sample in twenty: odd code steps are the raw LSB toggles,
    :func:`deglitch_edges` filters that toggle list, the filtered toggles
    go straight to the LSB processing block, and the MSB reference
    counter is checked at code changes and falling clock edges only
    (:func:`repro.core.kernel.event_msb_mismatch`), because the mismatch
    between the upper bits and the counter is constant in between.  Noisy
    runs therefore match the scalar engine decision for decision.

Both paths decide with the count-limit kernel
(:func:`repro.core.decision.decide_counts`) the scalar LSB processor uses.
The stream path and the event path's irregular devices feed it every
count.  A regular device on the event path under a saturating counter
without an INL spec feeds it only its smallest and largest count: the
reading, the over-range flag and both limit comparisons are monotone in
the count, so the row passes iff its two extremes do.  The stream path's
event MSB check equals the matrix reference counter of
:mod:`repro.core.kernel` that the scalar
:class:`~repro.core.msb_checker.MsbChecker` runs with one row.

:func:`chip_grouping` and :meth:`BatchBistEngine.run_chips` extend the batch
to multi-converter ICs: consecutive dies share one chip, the chip passes
when every converter on it passes, and the wall-clock test time is that of
a single shared ramp — the paper's parallel-test argument, evaluated for a
whole lot at once.

The engine is built on the :class:`~repro.production.execution.WaferEngine`
skeleton, which owns the entry points, the chunk loop (noise draw and
quantisation included) and the merge; this module supplies the per-run
context and the two chunk kernels.  Any run can therefore be scaled out
over worker processes with an
:class:`~repro.production.execution.ExecutionPlan` — bit-identical for any
plan, because every device draws its own keyed noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.adc.ideal import IdealADC
from repro.adc.population import DevicePopulation
from repro.adc.transfer import batch_good_mask, row_steps
from repro.core.decision import counter_readings, decide_counts
from repro.core.deglitch import DeglitchFilter
from repro.core.engine import BistConfig, BistEngine, PopulationBistResult
from repro.core.kernel import (
    auto_chunk_size,
    code_change_events,
    code_dtype,
    event_msb_mismatch,
    index_dtype,
    packed_crossing_events,
    position_in_device,
    shared_crossing_indices,
)
from repro.core.limits import CountLimits
from repro.core.noise import NoiseSeed
from repro.production.execution import (
    ConcatResult,
    ExecutionPlan,
    ShardContext,
    WaferEngine,
)
from repro.production.lot import Wafer
from repro.telemetry.core import current_telemetry

__all__ = ["BatchLsbProcessor", "BatchLsbResult", "BatchBistResult",
           "BatchBistEngine", "BatchChipBistResult", "batch_deglitch",
           "chip_grouping", "deglitch_edges"]


def _event_chunk_size(n_transitions: int, n_samples: int) -> int:
    """Default chunk on the event path: only O(codes) state per device.

    The working set per device is the crossing-index row plus a handful of
    same-shaped intermediates (masks, diffs, packed events), so the row
    estimate is four index-rows wide.
    """
    row = 4 * max(n_transitions, 1) * index_dtype(n_samples).itemsize
    return auto_chunk_size(row)


#: Working-set budget of one stream-path chunk.  Its sample matrices are
#: streamed through several times, so they should stay near the cache:
#: on a 2-core Xeon with 2 MiB of L2 per core, 48–96 devices of 4369
#: samples ran fastest and chunks of 192 or more ran ~15% slower.
STREAM_CHUNK_BUDGET_BYTES = 12 << 20


def _stream_chunk_size(n_transitions: int, n_samples: int) -> int:
    """Default chunk on the stream path: full per-device sample rows.

    Each device materialises a float64 voltage row, the quantiser's two
    float64 bound rows, a code row and three bool masks (the quantiser's
    step masks and the code-change mask).
    """
    row = n_samples * (24 + code_dtype(n_transitions + 1).itemsize + 3)
    return auto_chunk_size(max(row, 1), budget=STREAM_CHUNK_BUDGET_BYTES)


def _stop_codes(failed: np.ndarray, code_pass: np.ndarray,
                n_codes: int) -> np.ndarray:
    """Each device's stop under the curtailed flow, in codes.

    ``failed`` marks the devices a code comparison may have rejected and
    ``code_pass`` holds those devices' per-code decisions in ramp order.
    A device stops one code past its first failing code, clipped to
    ``n_codes``.  Every other device stops at ``n_codes``: the tester
    learns a transition-count or MSB reject only at the end of the
    record.
    """
    stops = np.full(failed.size, n_codes, dtype=code_dtype(n_codes + 1))
    if code_pass.size:
        failing = ~code_pass
        stops[failed] = np.where(
            failing.any(axis=1),
            np.minimum(failing.argmax(axis=1) + 1, n_codes), n_codes)
    return stops


@dataclass
class _ChunkOutcome:
    """Per-device aggregate decisions of one processed chunk."""

    dnl_passed: np.ndarray
    inl_passed: np.ndarray
    transitions_ok: np.ndarray
    msb_passed: np.ndarray
    n_transitions: np.ndarray
    measured_max_dnl_lsb: np.ndarray
    stop_codes: np.ndarray

    @classmethod
    def empty(cls, n_devices: int, n_codes: int) -> "_ChunkOutcome":
        """All-fail scaffold to be filled per device group."""
        return cls(dnl_passed=np.zeros(n_devices, dtype=bool),
                   inl_passed=np.zeros(n_devices, dtype=bool),
                   transitions_ok=np.zeros(n_devices, dtype=bool),
                   msb_passed=np.zeros(n_devices, dtype=bool),
                   n_transitions=np.zeros(n_devices, dtype=np.int64),
                   measured_max_dnl_lsb=np.full(n_devices, np.nan),
                   stop_codes=np.full(n_devices, n_codes,
                                      dtype=code_dtype(n_codes + 1)))

    @classmethod
    def from_lsb(cls, lsb_res: "BatchLsbResult", msb_passed: np.ndarray,
                 n_codes: int) -> "_ChunkOutcome":
        """Aggregate a full LSB-block result plus the MSB decisions."""
        dnl_passed = lsb_res.dnl_passed
        inl_passed = lsb_res.inl_passed
        failed = ~(dnl_passed & inl_passed)
        return cls(dnl_passed=dnl_passed,
                   inl_passed=inl_passed,
                   transitions_ok=lsb_res.transitions_ok,
                   msb_passed=np.asarray(msb_passed, dtype=bool),
                   n_transitions=lsb_res.n_transitions,
                   measured_max_dnl_lsb=lsb_res.measured_max_dnl_lsb(),
                   stop_codes=_stop_codes(
                       failed, lsb_res.dnl_pass_per_code[failed]
                       & lsb_res.inl_pass_per_code[failed], n_codes))

    def scatter(self, sub: "_ChunkOutcome", mask: np.ndarray) -> None:
        """Write a sub-batch outcome into the rows selected by ``mask``."""
        self.dnl_passed[mask] = sub.dnl_passed
        self.inl_passed[mask] = sub.inl_passed
        self.transitions_ok[mask] = sub.transitions_ok
        self.msb_passed[mask] = sub.msb_passed
        self.n_transitions[mask] = sub.n_transitions
        self.measured_max_dnl_lsb[mask] = sub.measured_max_dnl_lsb
        self.stop_codes[mask] = sub.stop_codes

    def result(self, samples_taken: int,
               limits: CountLimits) -> "BatchBistResult":
        """The chunk's :class:`BatchBistResult`."""
        lsb_passed = self.dnl_passed & self.inl_passed & self.transitions_ok
        return BatchBistResult(
            n_devices=int(lsb_passed.size),
            passed=lsb_passed & self.msb_passed,
            lsb_passed=lsb_passed,
            dnl_passed=self.dnl_passed,
            inl_passed=self.inl_passed,
            transitions_ok=self.transitions_ok,
            msb_passed=self.msb_passed,
            n_transitions=self.n_transitions,
            measured_max_dnl_lsb=self.measured_max_dnl_lsb,
            stop_codes=self.stop_codes,
            samples_taken=samples_taken,
            limits=limits)


def batch_deglitch(streams: np.ndarray,
                   filt: DeglitchFilter) -> np.ndarray:
    """Apply a :class:`DeglitchFilter` to every row of a 0/1 stream matrix.

    Row ``d`` of the result equals ``filt.apply(streams[d])`` exactly.  The
    matrix is reduced to its toggle list, filtered by
    :func:`deglitch_edges` and expanded again.
    """
    streams = np.asarray(streams)
    if streams.ndim != 2:
        raise ValueError("streams must be a (devices, samples) matrix")
    values = (streams != 0).astype(np.int8)
    if filt.depth == 0 or values.shape[1] == 0:
        return values
    out_dev, out_t = deglitch_edges(*code_change_events(values),
                                    values[:, 0], values.shape[1], filt)
    toggles = np.zeros(values.shape, dtype=np.int8)
    toggles[:, 0] = values[:, 0]
    toggles[out_dev, out_t] = 1
    return np.bitwise_xor.accumulate(toggles, axis=1)


def deglitch_edges(edge_dev: np.ndarray, edge_t: np.ndarray,
                   initial: np.ndarray, n_samples: int,
                   filt: DeglitchFilter) -> Tuple[np.ndarray, np.ndarray]:
    """Run a :class:`DeglitchFilter` on 0/1 streams given as toggle lists.

    A stream is its value at sample 0 (``initial``, per device) plus the
    samples at which it toggles (``edge_dev``/``edge_t``, sorted by
    device, then sample, every ``t`` in ``[1, n_samples)``).  The filtered
    stream starts at the same value in both modes, so the result is again
    a toggle list in the same order, equal to the toggles of
    ``filt.apply`` on the expanded rows.
    """
    if filt.depth == 0 or edge_t.size == 0:
        return edge_dev, edge_t
    initial = np.asarray(initial, dtype=np.int64)
    pos, first = position_in_device(edge_dev, initial.size)
    if filt.mode == "majority":
        return _majority_edges(edge_dev, edge_t, initial, pos, first,
                               n_samples, filt.depth)
    # Hysteresis: the run a toggle starts flips the state at its depth-th
    # sample when it lasts that long and its value differs from the last
    # run that did.  Runs alternate in value, so "differs" is a parity
    # test against the previous qualifying run (or the initial run).
    run_end = np.append(edge_t[1:], n_samples)
    run_end[np.append(edge_dev[1:] != edge_dev[:-1], True)] = n_samples
    qualified = np.flatnonzero(run_end - edge_t >= filt.depth)
    parity = (pos[qualified] + 1) & 1
    previous = np.zeros_like(parity)
    previous[1:] = parity[:-1]
    dev = edge_dev[qualified]
    previous[1:][dev[1:] != dev[:-1]] = 0
    flips = qualified[parity != previous]
    return edge_dev[flips], edge_t[flips] + (filt.depth - 1)


def _majority_edges(edge_dev: np.ndarray, edge_t: np.ndarray,
                    initial: np.ndarray, pos: np.ndarray, first: np.ndarray,
                    n_samples: int, depth: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Majority-mode :func:`deglitch_edges`.

    The vote at sample ``i`` counts the ones among the edge-padded samples
    ``i - depth .. i + depth``; it can only change within ``depth`` of a
    toggle, so it is evaluated at those samples and their predecessors
    only, from per-run prefix counts of ones.
    """
    # Ones before each toggle: a segmented running sum of the lengths of
    # the runs of ones that precede it.
    run_start = np.where(pos > 0, np.append(0, edge_t[:-1]), 0)
    before_value = initial[edge_dev] ^ (pos & 1)
    ones = np.cumsum((edge_t - run_start) * before_value)
    ones_before = ones - np.append(0, ones)[first[edge_dev]]
    keys = edge_dev * n_samples + edge_t
    n_edges = np.bincount(edge_dev, minlength=initial.size)

    def ones_through(d: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Ones among samples ``0 .. n`` of device ``d`` (``n >= -1``)."""
        runs = (np.searchsorted(keys, d * n_samples + n, side="right")
                - first[d])
        last = np.maximum(first[d] + runs - 1, 0)
        value = initial[d] ^ (runs & 1)
        start = np.where(runs > 0, edge_t[last], 0)
        prefix = np.where(runs > 0, ones_before[last], 0)
        return np.where(n >= 0, prefix + value * (n - start + 1), 0)

    offsets = np.arange(-depth - 1, depth + 1)
    where = edge_t[:, None] + offsets
    inside = (where >= 0) & (where < n_samples)
    points = np.unique((edge_dev[:, None] * n_samples + where)[inside])
    d = points // n_samples
    i = points - d * n_samples
    final = initial ^ (n_edges & 1)
    votes = (ones_through(d, np.minimum(i + depth, n_samples - 1))
             - ones_through(d, np.maximum(i - depth, 0) - 1)
             + np.maximum(depth - i, 0) * initial[d]
             + np.maximum(i + depth - (n_samples - 1), 0) * final[d])
    out = 2 * votes > 2 * depth + 1
    change = ((np.diff(points) == 1) & (i[1:] > 0)
              & (out[1:] != out[:-1]))
    return d[1:][change], i[1:][change]


@dataclass
class BatchLsbResult:
    """Outcome of the LSB processing block over a batch of LSB streams.

    The per-code arrays are left-packed per device and padded along the
    last axis; ``valid`` marks the real entries.  Per-device aggregates
    mirror the scalar :class:`~repro.core.lsb_processor.LsbProcessorResult`
    properties.
    """

    counts: np.ndarray
    counter_readings: np.ndarray
    dnl_pass_per_code: np.ndarray
    inl_deviation_counts: np.ndarray
    inl_pass_per_code: np.ndarray
    valid: np.ndarray
    n_counts: np.ndarray
    n_transitions: np.ndarray
    expected_transitions: Optional[int]
    limits: CountLimits

    @property
    def n_devices(self) -> int:
        """Number of devices in the batch."""
        return int(self.n_transitions.size)

    @property
    def dnl_passed(self) -> np.ndarray:
        """Per-device DNL decision (False when no code was measured)."""
        return self.dnl_pass_per_code.all(axis=1) & (self.n_counts > 0)

    @property
    def inl_passed(self) -> np.ndarray:
        """Per-device INL decision (False when no code was measured)."""
        return self.inl_pass_per_code.all(axis=1) & (self.n_counts > 0)

    @property
    def transitions_ok(self) -> np.ndarray:
        """Per-device check of the observed LSB transition count."""
        if self.expected_transitions is None:
            return np.ones(self.n_devices, dtype=bool)
        return self.n_transitions == self.expected_transitions

    @property
    def passed(self) -> np.ndarray:
        """Per-device static-linearity decision of the LSB block."""
        return self.dnl_passed & self.inl_passed & self.transitions_ok

    def measured_max_dnl_lsb(self) -> np.ndarray:
        """Per-device largest |DNL| as reconstructed from the counters.

        The quantity the production line bins accepted devices on; NaN for
        devices without measured codes.  The per-device width sum runs
        over the *valid* entries only (a sequential ``bincount`` in
        device-major order), never over the padding columns: the padded
        width depends on how a run was chunked, and a summation whose
        partitioning followed it would drift by an ulp between chunk
        layouts — breaking the execution layer's bit-invariance.
        """
        widths = np.where(self.valid,
                          self.counter_readings * self.limits.delta_s_lsb,
                          0.0)
        dev_idx, pos = np.nonzero(self.valid)
        sums = np.bincount(dev_idx, weights=widths[dev_idx, pos],
                           minlength=self.n_devices)
        n = np.maximum(self.n_counts, 1)
        mean = sums / n
        mean = np.where(mean == 0.0, 1.0, mean)
        dnl = np.abs(widths / mean[:, None] - 1.0)
        worst = np.where(self.valid, dnl, 0.0).max(axis=1, initial=0.0)
        return np.where(self.n_counts > 0, worst, np.nan)


def _packed_counts(edge_dev: np.ndarray, edge_t: np.ndarray,
                   n_edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """Per-code counts from flat edge events, left-packed per device.

    ``edge_dev``/``edge_t`` must be sorted by device then sample index, as
    produced by row-major ``nonzero`` or a sorted-key reduction; counts of
    device ``d`` are the gaps between its successive edges, matching the
    scalar ``np.diff(edges)``.
    """
    n_devices = n_edges.size
    n_counts = np.maximum(n_edges - 1, 0)
    width = int(n_counts.max()) if n_devices else 0
    counts = np.zeros((n_devices, width), dtype=np.int64)
    valid = np.zeros((n_devices, width), dtype=bool)
    if edge_t.size >= 2:
        same = edge_dev[1:] == edge_dev[:-1]
        flat_dev = edge_dev[1:][same]
        flat_counts = (edge_t[1:] - edge_t[:-1])[same]
        starts = np.concatenate(([0], np.cumsum(n_counts)[:-1]))
        pos = np.arange(flat_counts.size) - np.repeat(starts, n_counts)
        counts[flat_dev, pos] = flat_counts
        valid[flat_dev, pos] = True
    return counts, valid, n_counts


class BatchLsbProcessor:
    """Batched counterpart of :class:`~repro.core.lsb_processor.LsbProcessor`.

    Processes a whole matrix of LSB sample streams at once; row ``d`` of
    every per-code array matches what the scalar block produces for stream
    ``d``, decision for decision.
    """

    def __init__(self, limits: CountLimits,
                 deglitch: Optional[DeglitchFilter] = None,
                 counter_saturate: bool = True) -> None:
        self.limits = limits
        self.deglitch = deglitch
        self.counter_saturate = counter_saturate

    def process(self, lsb_streams: np.ndarray,
                n_bits: Optional[int] = None) -> BatchLsbResult:
        """Run the block over a ``(devices, samples)`` 0/1 stream matrix."""
        streams = (np.asarray(lsb_streams) != 0).astype(np.int8)
        if streams.ndim != 2:
            raise ValueError("lsb_streams must be a (devices, samples) "
                             "matrix")
        edge_dev, edge_t = code_change_events(streams)
        if self.deglitch is not None and edge_t.size:
            edge_dev, edge_t = deglitch_edges(edge_dev, edge_t,
                                              streams[:, 0],
                                              streams.shape[1],
                                              self.deglitch)
        n_edges = np.bincount(edge_dev, minlength=streams.shape[0])
        return self._from_edges(edge_dev, edge_t, n_edges, n_bits=n_bits)

    def _from_edges(self, edge_dev: np.ndarray, edge_t: np.ndarray,
                    n_edges: np.ndarray,
                    n_bits: Optional[int] = None) -> BatchLsbResult:
        """Build the result from flat (device, sample-index) edge events."""
        counts, valid, n_counts = _packed_counts(edge_dev, edge_t, n_edges)
        decision = decide_counts(counts, self.limits,
                                 saturate=self.counter_saturate,
                                 valid=valid)
        expected = ((1 << n_bits) - 1) if n_bits is not None else None
        return BatchLsbResult(
            counts=counts,
            counter_readings=decision.readings,
            dnl_pass_per_code=decision.dnl_pass,
            inl_deviation_counts=decision.inl_deviation,
            inl_pass_per_code=decision.inl_pass,
            valid=valid,
            n_counts=n_counts,
            n_transitions=n_edges.astype(np.int64),
            expected_transitions=expected,
            limits=self.limits)


@dataclass
class BatchBistResult(ConcatResult):
    """Per-device outcome of one batched BIST run.

    All arrays have one entry per device; ``passed`` is the accept/reject
    vector matching :attr:`repro.core.engine.BistResult.passed` of the
    scalar engine run on each device individually.  ``stop_codes`` is
    where a tester that stops each device at its first failing code
    would have stopped it: one code past that code in ramp order,
    clipped to the inner code count, and the inner code count for a
    device no code comparison rejected.
    """

    n_devices: int
    passed: np.ndarray
    lsb_passed: np.ndarray
    dnl_passed: np.ndarray
    inl_passed: np.ndarray
    transitions_ok: np.ndarray
    msb_passed: np.ndarray
    n_transitions: np.ndarray
    measured_max_dnl_lsb: np.ndarray
    stop_codes: np.ndarray
    samples_taken: int
    limits: CountLimits

    @property
    def n_accepted(self) -> int:
        """Number of devices the BIST accepted."""
        return int(np.count_nonzero(self.passed))

    @property
    def n_rejected(self) -> int:
        """Number of devices the BIST rejected."""
        return self.n_devices - self.n_accepted

    @property
    def accept_fraction(self) -> float:
        """Fraction of devices accepted."""
        return self.n_accepted / self.n_devices if self.n_devices else 0.0

    @property
    def off_chip_bits_transferred(self) -> int:
        """Pass/fail flags read out for the whole batch (one per device)."""
        return self.n_devices


def chip_grouping(passed: np.ndarray,
                  converters_per_chip: int) -> Tuple[np.ndarray, np.ndarray]:
    """Group per-converter decisions into per-chip verdicts and registers.

    Converter ``i`` sits on chip ``i // converters_per_chip`` (dies are
    assembled in wafer order).  Returns the per-chip pass vector (a chip
    passes when every converter on it passed) and the packed result
    registers (bit ``j`` set = converter ``j`` of the chip passed), exactly
    the read-out format of
    :class:`~repro.core.controller.MultiAdcBistController`.
    """
    passed = np.asarray(passed, dtype=bool)
    if passed.ndim != 1:
        raise ValueError("passed must be a per-converter vector")
    if not 1 <= converters_per_chip <= 63:
        # The registers are packed into int64; bit 63 would flip the sign.
        raise ValueError("converters_per_chip must be within [1, 63]")
    if passed.size % converters_per_chip != 0:
        raise ValueError(
            f"{passed.size} converters do not fill whole chips of "
            f"{converters_per_chip}")
    grouped = passed.reshape(-1, converters_per_chip)
    registers = (grouped.astype(np.int64)
                 << np.arange(converters_per_chip)).sum(axis=1)
    return grouped.all(axis=1), registers


@dataclass
class BatchChipBistResult(ConcatResult):
    """Per-chip outcome of a batched multi-converter BIST run.

    The batched analogue of
    :class:`~repro.core.controller.ChipBistResult` over a whole lot of
    ICs: every chip's converters share one stimulus ramp, so the chip test
    time equals the single-converter test time regardless of how many
    converters each IC carries.
    """

    n_chips: int
    converters_per_chip: int
    chip_passed: np.ndarray
    converter_passed: np.ndarray
    result_registers: np.ndarray
    samples_taken: int
    test_time_s: float

    @property
    def n_chips_passed(self) -> int:
        """Chips on which every converter passed."""
        return int(np.count_nonzero(self.chip_passed))

    @property
    def chip_yield(self) -> float:
        """Fraction of chips passing as a whole."""
        return self.n_chips_passed / self.n_chips if self.n_chips else 0.0

    @property
    def converter_fallout(self) -> float:
        """Fraction of individual converters failing."""
        if self.converter_passed.size == 0:
            return 0.0
        return float(np.mean(~self.converter_passed))

    @property
    def sequential_test_time_s(self) -> float:
        """Test time had the converters of each chip been tested serially."""
        return self.test_time_s * self.converters_per_chip

    @property
    def parallel_speedup(self) -> float:
        """Chip-level test-time reduction of the shared-ramp arrangement."""
        return float(self.converters_per_chip)


class BistWaferEngine(WaferEngine):
    """What the full- and partial-BIST batch engines share.

    Both take a configuration with ``n_bits``, the specification, the
    noise level and the default ``seed``; on top of the
    :class:`~repro.production.execution.WaferEngine` skeleton they share
    chip mode (:meth:`run_chips`) and truth-scored Monte-Carlo runs
    (:meth:`run_population`).
    """

    @property
    def seed(self) -> Optional[int]:
        """Default seed of the acquisition noise."""
        return self.config.seed

    def _check_columns(self, transitions: np.ndarray) -> None:
        """Reject a transition matrix of the wrong resolution."""
        n_bits = self.config.n_bits
        expected_cols = (1 << n_bits) - 1
        if transitions.ndim != 2 or transitions.shape[1] != expected_cols:
            raise ValueError(
                f"configuration is for {n_bits}-bit converters; expected "
                f"a (devices, {expected_cols}) transition matrix, got shape "
                f"{transitions.shape}")

    def run_chips(self, wafer: Wafer, converters_per_chip: int,
                  rng: NoiseSeed = None,
                  chunk_size: Optional[int] = None,
                  plan: Optional[ExecutionPlan] = None
                  ) -> BatchChipBistResult:
        """Run the batched BIST on a wafer of multi-converter ICs.

        Consecutive dies form one chip; all converters of a chip share the
        stimulus ramp, and a chip passes when every converter on it
        passes.  The run is :meth:`run_wafer` grouped by
        :func:`chip_grouping`: converter ``j`` of chip ``c`` is device
        ``c * converters_per_chip + j`` and draws that device's keyed
        noise, as in :meth:`repro.core.controller.MultiAdcBistController.
        run_lot`.
        """
        spec = wafer.spec
        result = self.run_wafer(wafer, rng=rng, chunk_size=chunk_size,
                                plan=plan)
        chip_passed, registers = chip_grouping(result.passed,
                                               converters_per_chip)
        return BatchChipBistResult(
            n_chips=int(chip_passed.size),
            converters_per_chip=int(converters_per_chip),
            chip_passed=chip_passed,
            converter_passed=result.passed,
            result_registers=registers,
            samples_taken=result.samples_taken,
            test_time_s=result.samples_taken / spec.sample_rate)

    def run_population(self, population: Union[DevicePopulation, Wafer],
                       rng: NoiseSeed = None,
                       dnl_spec_lsb: Optional[float] = None,
                       inl_spec_lsb: Optional[float] = None,
                       plan: Optional[ExecutionPlan] = None
                       ) -> PopulationBistResult:
        """Monte-Carlo run scored against the devices' true linearity.

        Accepts a :class:`~repro.adc.population.DevicePopulation` or a
        :class:`~repro.production.lot.Wafer` and returns the
        :class:`~repro.core.engine.PopulationBistResult` the scalar
        ``run_population`` loop produces, with identical accept and
        truly-good vectors.
        """
        cfg = self.config
        if dnl_spec_lsb is None:
            dnl_spec_lsb = cfg.dnl_spec_lsb
        if inl_spec_lsb is None:
            inl_spec_lsb = cfg.inl_spec_lsb
        transitions = (population.transitions
                       if isinstance(population, Wafer)
                       else population.transition_matrix())
        spec = population.spec
        result = self.run_transitions(transitions,
                                      full_scale=spec.full_scale,
                                      sample_rate=spec.sample_rate, rng=rng,
                                      plan=plan)
        return PopulationBistResult(
            n_devices=result.n_devices, accepted=result.passed,
            truly_good=batch_good_mask(transitions, dnl_spec_lsb,
                                       inl_spec_lsb))


class BatchBistEngine(BistWaferEngine):
    """Run the paper's BIST on every device of a batch at once.

    Parameters
    ----------
    config:
        The measurement configuration, shared with the scalar
        :class:`~repro.core.engine.BistEngine`; both engines derive the
        identical ramp, limits and on-chip blocks from it.
    """

    name = "bist"

    def __init__(self, config: BistConfig) -> None:
        self.config = config
        self._limits = config.limits()
        self._deglitch = (DeglitchFilter(config.deglitch_depth,
                                         config.deglitch_mode)
                          if config.deglitch_depth > 0 else None)
        # The engine filters streams explicitly (once, shared between the
        # MSB clock and the LSB block), so its processor carries no filter.
        self._lsb = BatchLsbProcessor(self._limits, deglitch=None,
                                      counter_saturate=config.counter_saturate)
        # Shared with the scalar engine: ramp construction and the gate
        # count of the on-chip circuitry are one implementation, not two.
        self._scalar = BistEngine(config)
        self._msb_q = 1

    @property
    def limits(self) -> CountLimits:
        """The count limits in use."""
        return self._limits

    def gate_count(self) -> int:
        """Gate-equivalent estimate of the (per-device) on-chip circuitry."""
        return self._scalar.gate_count()

    # ------------------------------------------------------------------ #
    # Skeleton hooks
    # ------------------------------------------------------------------ #

    def _context(self, transitions: np.ndarray, full_scale: float,
                 sample_rate: float) -> ShardContext:
        """The shared ramp record and the execution-path selection."""
        cfg = self.config
        self._check_columns(transitions)
        proxy = IdealADC(cfg.n_bits, full_scale, sample_rate)
        ramp = self._scalar.build_ramp(proxy)
        n_samples = ramp.n_samples_for_adc(proxy,
                                           margin_lsb=cfg.start_margin_lsb)
        times = np.arange(n_samples) / sample_rate
        event_path = (cfg.transition_noise_lsb == 0.0
                      and cfg.stimulus_noise_lsb == 0.0
                      and self._deglitch is None)
        chunk = _event_chunk_size if event_path else _stream_chunk_size
        return ShardContext(
            stimulus=ramp.voltage(times),
            noise_volts=cfg.transition_noise_lsb * proxy.lsb,
            event_path=event_path,
            default_chunk=chunk(transitions.shape[1], n_samples))

    def _run_chunk(self, context: ShardContext, transitions: np.ndarray,
                   codes: Optional[np.ndarray]) -> BatchBistResult:
        """Decisions for one chunk, on events or on its code matrix."""
        outcome = (self._run_events(transitions, context.stimulus)
                   if codes is None else self._run_streams(codes))
        return outcome.result(context.n_samples, self._limits)

    # ------------------------------------------------------------------ #
    # Event path: crossing indices only, no sample matrix
    # ------------------------------------------------------------------ #

    def _run_events(self, transitions: np.ndarray,
                    ramp_voltages: np.ndarray) -> "_ChunkOutcome":
        """Noise-free fast path working purely on transition crossings.

        ``crossing[d, k]`` is the first sample index whose ramp voltage
        reaches transition ``k`` of device ``d``; the output code at sample
        ``t`` is the number of crossings at or before ``t`` (exactly the
        thermometer count the scalar ``TransferFunction.convert`` computes,
        monotone or not).  A *regular* device — every transition crossed at
        a distinct sample inside the record — yields its per-code counts
        directly as ``diff(crossing)``, produces exactly one LSB edge per
        transition, and satisfies the MSB reference counter identically
        (the code steps 0, 1, 2, …, so the upper bits always equal
        ``#falls = code >> 1``).  Only the rare irregular devices (missing
        codes folding two crossings onto one sample, gross curves starting
        above the ramp) take the general sorted-event reduction in
        :meth:`_irregular_events`.  The chunk takes ``diff(crossing)``
        and its row extremes once, from one flat subtraction and two
        ``axis=1`` reductions (:func:`repro.adc.transfer.row_steps`): the
        row minimum tells the regular devices (smallest count positive,
        first and last crossing inside the record), and the extremes
        decide them in :meth:`_regular_outcome`.
        """
        n_chunk = transitions.shape[0]
        n_samples = ramp_voltages.size
        crossing = shared_crossing_indices(transitions, ramp_voltages)
        counts, smallest, largest = row_steps(crossing)
        # Strictly increasing crossings all lie inside the record iff the
        # first and the last do.
        regular = ((smallest > 0) & (crossing[:, 0] >= 1)
                   & (crossing[:, -1] <= n_samples - 1))
        n_codes_expected = transitions.shape[1]

        outcome = _ChunkOutcome.empty(n_chunk, n_codes_expected - 1)
        if regular.all():
            self._regular_outcome(counts, smallest, largest, outcome,
                                  slice(None))
        else:
            self._regular_outcome(counts[regular], smallest[regular],
                                  largest[regular], outcome, regular)
            irregular = ~regular
            sub = self._irregular_events(crossing[irregular], n_samples)
            outcome.scatter(sub, irregular)
        outcome.transitions_ok = (outcome.n_transitions
                                  == n_codes_expected)
        return outcome

    def _regular_outcome(self, counts: np.ndarray, smallest: np.ndarray,
                         largest: np.ndarray, outcome: "_ChunkOutcome",
                         mask: Union[np.ndarray, slice]) -> None:
        """Fill the outcome for devices with one clean edge per transition.

        ``counts`` holds the devices' per-code sample counts, ``smallest``
        and ``largest`` its row extremes.  A saturating counter reads
        ``min(count, 2**bits)``, which is monotone in the count, and so
        are the over-range flag and both limit comparisons.  So without
        an INL spec, whose running sum needs every code, a row's
        comparisons all pass iff they pass at its two extremes.  For a
        positive row mean ``m``, ``|w / m - 1|`` in floating point is
        largest at the row's smallest or largest width ``w``, so the
        measured max |DNL| comes from the extremes and the full row's
        mean.  Wrapping counters and INL specs decide on the full rows.
        Either way, only a failed row's per-code decisions are searched
        for its stop.
        """
        if counts.shape[0] == 0:
            return
        cfg = self.config
        limits = self._limits
        step = limits.delta_s_lsb
        extremes = cfg.counter_saturate and limits.inl_spec_lsb is None
        # Per-code arrays below are (codes, devices): reductions run down
        # the columns.
        if extremes:
            # Row 0 holds every device's smallest count, row 1 its
            # largest.  The comparisons are element-wise; the INL running
            # sum, which would run along the devices, is not used.
            decision = decide_counts(np.stack((smallest, largest)), limits)
            # No count above the counter's reach: every reading equals
            # its count.
            readings = (counts if largest.max() <= 1 << limits.counter_bits
                        else counter_readings(counts, limits.counter_bits))
            mean = (readings * step).mean(axis=1)
            dnl_pass, inl_pass = decision.dnl_pass, decision.inl_pass
            widths = decision.readings * step
        else:
            decision = decide_counts(counts, limits,
                                     saturate=cfg.counter_saturate)
            dnl_pass, inl_pass = decision.dnl_pass.T, decision.inl_pass.T
            widths = decision.readings * step
            mean = widths.mean(axis=1)
            widths = widths.T
        dnl_passed = dnl_pass.all(axis=0)
        inl_passed = inl_pass.all(axis=0)
        outcome.dnl_passed[mask] = dnl_passed
        outcome.inl_passed[mask] = inl_passed
        failed = ~(dnl_passed & inl_passed)
        if failed.any():
            # The scaffold already stops every device at the last code.
            code_pass = (decide_counts(counts[failed], limits).code_pass
                         if extremes else
                         decision.dnl_pass[failed] & decision.inl_pass[failed])
            outcome.stop_codes[mask] = _stop_codes(failed, code_pass,
                                                   counts.shape[1])
        outcome.n_transitions[mask] = counts.shape[1] + 1
        # Codes step 0, 1, 2, … one at a time, so the upper bits always
        # equal the reference counter: the functionality check passes.
        outcome.msb_passed[mask] = True
        mean = np.where(mean == 0.0, 1.0, mean)
        outcome.measured_max_dnl_lsb[mask] = \
            np.abs(widths / mean - 1.0).max(axis=0)

    def _irregular_events(self, crossing: np.ndarray,
                          n_samples: int) -> "_ChunkOutcome":
        """Sorted-event reduction for devices with folded or missing edges.

        The LSB toggles at a sample iff an odd number of crossings land on
        it, and the MSB reference counter advances on odd-to-even code
        parity steps, so all decisions follow from the per-device crossing
        multiplicities.
        """
        cfg = self.config
        n_sub = crossing.shape[0]
        start_code, mult_p, times_p, live, _ = packed_crossing_events(
            crossing, n_samples)

        if cfg.check_msb:
            code_after = start_code[:, None] + np.cumsum(mult_p, axis=1)
            code_before = code_after - mult_p
            q = self._msb_q
            fall = ((code_before & 1 == 1) & (code_after & 1 == 0) & live)
            reference = (start_code >> q)[:, None] + np.cumsum(fall, axis=1)
            mismatch = ((code_after >> q) != reference) & live
            msb_ok = ~mismatch.any(axis=1)
        else:
            msb_ok = np.ones(n_sub, dtype=bool)

        # The LSB toggles at events with an odd crossing multiplicity;
        # nonzero() walks the packed layout device-major, event-ascending,
        # the flat order _from_edges expects.
        odd = ((mult_p & 1) == 1) & live
        edge_dev, edge_pos = np.nonzero(odd)
        lsb_res = self._lsb._from_edges(edge_dev,
                                        times_p[edge_dev, edge_pos],
                                        odd.sum(axis=1),
                                        n_bits=cfg.n_bits)
        return _ChunkOutcome.from_lsb(lsb_res, msb_ok, crossing.shape[1] - 1)

    # ------------------------------------------------------------------ #
    # Stream path: the quantised code matrix, reduced to code changes
    # ------------------------------------------------------------------ #

    def _run_streams(self, codes: np.ndarray) -> "_ChunkOutcome":
        """Run the on-chip blocks over a chunk's quantised acquisitions.

        Everything works on the code-change events: the odd steps are the
        raw LSB toggles, the deglitch filter runs on that toggle list, and
        the MSB reference counter is checked at the code changes and the
        falling clock edges only.
        """
        cfg = self.config
        n_chunk, n_samples = codes.shape
        dev, t = code_change_events(codes)
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.count("engine.bist.stream_events", int(dev.size))
        flat_codes = codes.reshape(-1)
        at = dev * n_samples + t
        after = flat_codes[at].astype(np.int64)
        start = codes[:, 0].astype(np.int64)
        initial = start & 1

        odd = ((after ^ flat_codes[at - 1]) & 1) == 1
        edge_dev, edge_t = dev[odd], t[odd]
        if self._deglitch is not None:
            # Filter once; the deglitched stream clocks the MSB reference
            # counter and feeds the LSB processing block, as in the scalar
            # engine (which also applies the filter a single time to each).
            edge_dev, edge_t = deglitch_edges(edge_dev, edge_t, initial,
                                              n_samples, self._deglitch)
        if cfg.check_msb:
            # The clock falls where a toggle leaves it at 0.
            pos, _ = position_in_device(edge_dev, n_chunk)
            falls = (initial[edge_dev] ^ ((pos + 1) & 1)) == 0
            msb_ok = ~event_msb_mismatch(start, dev, t, after,
                                         edge_dev[falls], edge_t[falls],
                                         self._msb_q, cfg.msb_tolerance)
        else:
            msb_ok = np.ones(n_chunk, dtype=bool)

        lsb_res = self._lsb._from_edges(
            edge_dev, edge_t, np.bincount(edge_dev, minlength=n_chunk),
            n_bits=cfg.n_bits)
        return _ChunkOutcome.from_lsb(lsb_res, msb_ok, (1 << cfg.n_bits) - 2)
