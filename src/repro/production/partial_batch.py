"""Vectorised partial BIST (``q`` LSBs off-chip) over whole wafers.

:class:`BatchPartialBistEngine` runs the paper's Figure-2 partial-BIST flow
— on-chip verification of bits ``q+1 .. n`` against a counter clocked by
bit ``q``, tester-side capture of the ``q`` observed LSBs, code
reconstruction and off-chip histogram DNL/INL — across the *device axis*,
reproducing the scalar :class:`~repro.core.partial_engine.PartialBistEngine`
accept/reject decisions bit for bit.

The engine is a thin orchestration layer over the shared vectorised kernel
(:mod:`repro.core.kernel`): the scalar engine calls the same kernel
functions with one row, this engine calls them with thousands.  Two
acquisition paths mirror the full-BIST batch engine:

**Event path** (no transition noise).  Every device sees the identical
    rising ramp, so the acquisition is fully described by the
    transition-crossing events (each level's crossing index, guessed from
    the ramp equation and verified by
    :func:`repro.core.kernel.shared_crossing_indices`).  Between crossings
    the output code — and with it the reference counter, the reconstructed
    code and the histogram bin — is constant, so every per-sample quantity
    of the scalar flow collapses to an ``O(devices x codes)`` computation
    over the crossing events weighted by segment lengths.  The key identity:
    the reconstruction's wrap counter and the on-chip reference counter
    are clocked by the same falling edges of bit ``q``, so one cumulative
    sum drives both.

**Noisy path**.  The :class:`~repro.production.execution.WaferEngine`
    skeleton draws each device's input noise from its keyed stream
    (:class:`repro.core.noise.DeviceNoise`) — the stream the scalar engine
    draws for that device — and quantises the rows
    (:func:`repro.core.kernel.batch_quantise_rows`); the per-sample
    kernel functions then run over the materialised code matrix.

Unlike the full BIST, the partial scheme ships ``samples x q`` bits per
device to the tester; the result records that volume so the economics
stations can price the insertion accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.adc.ideal import IdealADC
from repro.core.bist_scheme import PartialBistPartition
from repro.core.kernel import (
    batch_code_histogram,
    batch_histogram_linearity,
    batch_msb_reference,
    batch_reconstruct_codes,
    packed_crossing_events,
    shared_crossing_indices,
)
from repro.core.partial_engine import PartialBistConfig, PartialBistEngine
from repro.production.batch_engine import (
    BistWaferEngine,
    _event_chunk_size,
    _stream_chunk_size,
)
from repro.production.execution import ConcatResult, ShardContext
from repro.signals.ramp import RampStimulus

__all__ = ["BatchPartialBistResult", "BatchPartialBistEngine"]


@dataclass(frozen=True)
class _PartialShardContext(ShardContext):
    """Per-run state of a batched partial run: adds the partition."""

    partition: PartialBistPartition


@dataclass
class BatchPartialBistResult(ConcatResult):
    """Per-device outcome of one batched partial-BIST run.

    All arrays have one entry per device; ``passed`` matches
    :attr:`repro.core.partial_engine.PartialBistResult.passed` of the
    scalar engine run on each device individually.
    """

    n_devices: int
    passed: np.ndarray
    linearity_passed: np.ndarray
    msb_passed: np.ndarray
    reconstruction_error_rate: np.ndarray
    measured_max_dnl_lsb: np.ndarray
    measured_max_inl_lsb: np.ndarray
    partition: PartialBistPartition
    samples_taken: int

    @property
    def n_accepted(self) -> int:
        """Number of devices the partial BIST accepted."""
        return int(np.count_nonzero(self.passed))

    @property
    def n_rejected(self) -> int:
        """Number of devices rejected."""
        return self.n_devices - self.n_accepted

    @property
    def accept_fraction(self) -> float:
        """Fraction of devices accepted."""
        return self.n_accepted / self.n_devices if self.n_devices else 0.0

    @property
    def bits_captured_per_device(self) -> int:
        """Output bits the tester records per device (``samples x q``)."""
        return self.samples_taken * self.partition.q

    @property
    def off_chip_bits_transferred(self) -> int:
        """Total tester capture volume of the batch."""
        return self.bits_captured_per_device * self.n_devices


class BatchPartialBistEngine(BistWaferEngine):
    """Run the Figure-2 partial BIST on every device of a batch at once.

    Parameters
    ----------
    config:
        The measurement configuration, shared with the scalar
        :class:`~repro.core.partial_engine.PartialBistEngine`; both engines
        derive the identical ramp, partition and decision logic from it.
    """

    name = "partial"

    def __init__(self, config: PartialBistConfig) -> None:
        self.config = config
        # Partition selection and single-device runs are one implementation:
        # the scalar engine is kept as the batch-of-1 reference.
        self._scalar = PartialBistEngine(config)

    def partition_for(self, full_scale: float,
                      sample_rate: float) -> PartialBistPartition:
        """The partition used for a batch sharing this geometry/clock."""
        proxy = IdealADC(self.config.n_bits, full_scale, sample_rate)
        return self._scalar.partition_for(proxy)

    # ------------------------------------------------------------------ #
    # Skeleton hooks
    # ------------------------------------------------------------------ #

    def _context(self, transitions: np.ndarray, full_scale: float,
                 sample_rate: float) -> _PartialShardContext:
        """The shared ramp record and the partition."""
        cfg = self.config
        self._check_columns(transitions)
        proxy = IdealADC(cfg.n_bits, full_scale, sample_rate)
        ramp = RampStimulus.for_adc(proxy, cfg.samples_per_code,
                                    start_margin_lsb=cfg.start_margin_lsb)
        n_samples = ramp.n_samples_for_adc(
            proxy, margin_lsb=cfg.start_margin_lsb)
        times = np.arange(n_samples) / sample_rate
        event_path = cfg.transition_noise_lsb == 0.0
        chunk = _event_chunk_size if event_path else _stream_chunk_size
        return _PartialShardContext(
            stimulus=ramp.voltage(times),
            noise_volts=cfg.transition_noise_lsb * proxy.lsb,
            event_path=event_path,
            default_chunk=chunk(transitions.shape[1], n_samples),
            partition=self._scalar.partition_for(proxy))

    def _run_chunk(self, context: _PartialShardContext,
                   transitions: np.ndarray, codes: Optional[np.ndarray]
                   ) -> BatchPartialBistResult:
        """Acquisition → on-chip check → reconstruction for one chunk."""
        if codes is None:
            return self._run_chunk_events(transitions, context)
        return self._run_streams(codes, context)

    # ------------------------------------------------------------------ #
    # Chunk processing
    # ------------------------------------------------------------------ #

    def _run_chunk_events(self, transitions: np.ndarray,
                          context: _PartialShardContext
                          ) -> BatchPartialBistResult:
        """Noise-free fast path working purely on transition crossings.

        With a shared monotone ramp the code of device ``d`` at sample
        ``t`` is the number of its transitions crossed at or before ``t``,
        so the acquisition collapses to per-device crossing events.  All
        per-sample quantities of the scalar flow are piecewise constant
        between events: the upper bits, the reference counter (clocked by
        falling edges of bit ``q``, which can only fall at an event), the
        reconstructed code, and therefore the histogram bin — each segment
        contributes its length to one bin.  The reconstruction's wrap
        counter sees the same falling edges as the reference counter, so
        a single cumulative sum drives both.
        """
        cfg = self.config
        n_chunk = transitions.shape[0]
        n_codes = 1 << cfg.n_bits
        n_samples = context.n_samples
        q = context.partition.q
        mask = (1 << q) - 1

        crossing = shared_crossing_indices(transitions, context.stimulus)
        start_code, mult_p, t_p, _, n_events = packed_crossing_events(
            crossing, n_samples)
        width = mult_p.shape[1]

        code_after = start_code[:, None] + np.cumsum(mult_p, axis=1)
        code_before = code_after - mult_p
        fall = (((code_before >> (q - 1)) & 1) == 1) \
            & (((code_after >> (q - 1)) & 1) == 0)
        reference = (start_code >> q)[:, None] + np.cumsum(fall, axis=1)
        upper = code_after >> q

        if cfg.check_msb and q < cfg.n_bits:
            # Padding columns repeat the final (code, reference) pair, so
            # they cannot introduce spurious mismatches.
            msb_ok = ~(upper != reference).any(axis=1) if width else \
                np.ones(n_chunk, dtype=bool)
        else:
            msb_ok = np.ones(n_chunk, dtype=bool)

        # Reconstructed code per segment; exact wherever the wrap counter
        # tracked the true upper bits.
        reconstructed = np.minimum((reference << q) + (code_after & mask),
                                   n_codes - 1)
        seg_len = np.diff(
            np.concatenate([t_p, np.full((n_chunk, 1), n_samples,
                                         dtype=np.int64)], axis=1), axis=1)
        err_count = ((reconstructed != code_after) * seg_len).sum(axis=1)
        errors = err_count / n_samples

        # Histogram: every segment drops its length into its bin; the
        # initial segment (before the first event) holds the start code.
        initial_len = np.where(n_events > 0,
                               t_p[:, 0] if width else n_samples,
                               n_samples)
        dev_idx = np.arange(n_chunk)
        flat_keys = np.concatenate([
            (dev_idx[:, None] * n_codes
             + np.clip(reconstructed, 0, n_codes - 1)).ravel(),
            dev_idx * n_codes + np.clip(start_code, 0, n_codes - 1)])
        flat_weights = np.concatenate([seg_len.ravel(),
                                       initial_len]).astype(float)
        counts = np.bincount(flat_keys, weights=flat_weights,
                             minlength=n_chunk * n_codes)
        counts = counts.reshape(n_chunk, n_codes)
        return self._decide(counts, msb_ok, errors, context)

    def _run_streams(self, codes: np.ndarray,
                     context: _PartialShardContext
                     ) -> BatchPartialBistResult:
        """Run the partial flow over a chunk's quantised acquisitions."""
        cfg = self.config
        n_chunk = codes.shape[0]
        n_codes = 1 << cfg.n_bits
        q = context.partition.q

        # --- on-chip: bits q+1 .. n against the reference counter ------- #
        if cfg.check_msb and q < cfg.n_bits:
            upper, reference, _ = batch_msb_reference(codes, q)
            msb_ok = ~(upper != reference).any(axis=1)
        else:
            msb_ok = np.ones(n_chunk, dtype=bool)

        # --- off-chip: reconstruct codes from the observed q LSBs ------- #
        mask = (1 << q) - 1
        observed = codes & mask
        initial_upper = codes[:, 0] >> q
        reconstructed = batch_reconstruct_codes(observed, q, cfg.n_bits,
                                                initial_upper=initial_upper)
        errors = np.mean(reconstructed != codes, axis=1)

        counts = batch_code_histogram(
            np.clip(reconstructed, 0, n_codes - 1), n_codes).astype(float)
        return self._decide(counts, msb_ok, errors, context)

    def _decide(self, counts: np.ndarray, msb_ok: np.ndarray,
                errors: np.ndarray, context: _PartialShardContext
                ) -> BatchPartialBistResult:
        """Histogram → DNL/INL → pass/fail, shared by both paths.

        The end-point computation over the inner bins is the shared
        device-axis kernel :func:`repro.core.kernel.batch_histogram_linearity`
        — exactly the scalar
        :func:`repro.analysis.linearity.dnl_from_histogram` with a device
        axis (same reductions in the same order, so the decisions stay
        bit-exact).
        """
        cfg = self.config
        dnl, inl, measurable = batch_histogram_linearity(counts)
        max_dnl = np.abs(dnl).max(axis=1)
        max_inl = np.abs(inl).max(axis=1)

        linearity_ok = measurable & (max_dnl <= cfg.dnl_spec_lsb)
        if cfg.inl_spec_lsb is not None:
            linearity_ok &= max_inl <= cfg.inl_spec_lsb
        max_dnl = np.where(measurable, max_dnl, np.nan)
        max_inl = np.where(measurable, max_inl, np.nan)

        return BatchPartialBistResult(
            n_devices=int(msb_ok.size),
            passed=linearity_ok & msb_ok,
            linearity_passed=linearity_ok,
            msb_passed=msb_ok,
            reconstruction_error_rate=errors,
            measured_max_dnl_lsb=max_dnl,
            measured_max_inl_lsb=max_inl,
            partition=context.partition,
            samples_taken=context.n_samples)
