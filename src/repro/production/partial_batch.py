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
    transition-crossing events (one batched :func:`numpy.searchsorted` of
    all transition levels into the ramp).  Between crossings the output
    code — and with it the reference counter, the reconstructed code and
    the histogram bin — is constant, so every per-sample quantity of the
    scalar flow collapses to an ``O(devices x codes)`` computation over
    the crossing events weighted by segment lengths.  The key identity:
    the reconstruction's wrap counter and the on-chip reference counter
    are clocked by the same falling edges of bit ``q``, so one cumulative
    sum drives both.

**Noisy path**.  Per-device input noise is drawn in device order from the
    shared generator — consuming the stream exactly as a scalar loop over
    the devices would — and each row is quantised individually
    (:func:`repro.core.kernel.batch_quantise_rows`), with the per-sample
    kernel functions running over the materialised code matrix.

Unlike the full BIST, the partial scheme ships ``samples x q`` bits per
device to the tester; the result records that volume so the economics
stations can price the insertion accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.adc.ideal import IdealADC
from repro.adc.population import DevicePopulation
from repro.core.backend import backend_scope, resolve_backend_name
from repro.core.bist_scheme import PartialBistPartition
from repro.core.engine import PopulationBistResult
from repro.core.kernel import (
    batch_code_histogram,
    batch_histogram_linearity,
    batch_msb_reference,
    batch_quantise_rows,
    batch_reconstruct_codes,
    packed_crossing_events,
    shared_crossing_indices,
)
from repro.core.partial_engine import PartialBistConfig, PartialBistEngine
from repro.production.batch_engine import (
    BatchChipBistResult,
    _chip_noise_rows,
    _event_chunk_size,
    _stream_chunk_size,
    _validated_chip_seeds,
    build_chip_result,
    population_truth_mask,
    resolve_population_matrix,
)
from repro.production.execution import (
    ExecutionPlan,
    ShardExecutor,
    iter_slices,
    resolve_plan_seed,
)
from repro.production.lot import Wafer
from repro.signals.ramp import RampStimulus
from repro.telemetry.core import current_telemetry

__all__ = ["BatchPartialBistResult", "BatchPartialBistEngine"]

RngLike = Union[int, np.random.Generator, None]


@dataclass(frozen=True)
class _PartialShardContext:
    """Per-run state shared by every shard of one batched partial run.

    Computed once by :meth:`BatchPartialBistEngine.prepare` and shipped to
    each shard; holds the shared stimulus and partition, no per-device
    state.
    """

    ramp_voltages: np.ndarray
    n_samples: int
    lsb_volts: float
    partition: PartialBistPartition
    backend: str = "numpy"


@dataclass
class BatchPartialBistResult:
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

    @classmethod
    def merge(cls, shards: "Sequence[BatchPartialBistResult]"
              ) -> "BatchPartialBistResult":
        """Concatenate per-shard results (in shard order) into one batch.

        The shards must come from one run: same partition and acquisition
        length.  This is the ``merge`` leg of the
        :class:`~repro.production.execution.WaferEngine` protocol.
        """
        shards = list(shards)
        if not shards:
            raise ValueError("cannot merge an empty shard list")
        first = shards[0]
        if any(s.partition != first.partition
               or s.samples_taken != first.samples_taken for s in shards):
            raise ValueError("shards disagree on the partition or "
                             "acquisition length")
        return cls(
            n_devices=sum(s.n_devices for s in shards),
            passed=np.concatenate([s.passed for s in shards]),
            linearity_passed=np.concatenate([s.linearity_passed
                                             for s in shards]),
            msb_passed=np.concatenate([s.msb_passed for s in shards]),
            reconstruction_error_rate=np.concatenate(
                [s.reconstruction_error_rate for s in shards]),
            measured_max_dnl_lsb=np.concatenate(
                [s.measured_max_dnl_lsb for s in shards]),
            measured_max_inl_lsb=np.concatenate(
                [s.measured_max_inl_lsb for s in shards]),
            partition=first.partition,
            samples_taken=first.samples_taken)


class BatchPartialBistEngine:
    """Run the Figure-2 partial BIST on every device of a batch at once.

    Parameters
    ----------
    config:
        The measurement configuration, shared with the scalar
        :class:`~repro.core.partial_engine.PartialBistEngine`; both engines
        derive the identical ramp, partition and decision logic from it.
    """

    def __init__(self, config: PartialBistConfig, *,
                 backend: Optional[str] = None) -> None:
        self.config = config
        self._backend = backend
        # Partition selection and single-device runs are one implementation:
        # the scalar engine is kept as the batch-of-1 reference.
        self._scalar = PartialBistEngine(config)

    # ------------------------------------------------------------------ #
    # Partition
    # ------------------------------------------------------------------ #

    def partition_for(self, full_scale: float,
                      sample_rate: float) -> PartialBistPartition:
        """The partition used for a batch sharing this geometry/clock."""
        proxy = IdealADC(self.config.n_bits, full_scale, sample_rate)
        return self._scalar.partition_for(proxy)

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def run_wafer(self, wafer: Wafer, rng: RngLike = None,
                  chunk_size: Optional[int] = None,
                  plan: Optional[ExecutionPlan] = None
                  ) -> BatchPartialBistResult:
        """Run the batched partial BIST on every die of a wafer."""
        spec = wafer.spec
        return self.run_transitions(wafer.transitions,
                                    full_scale=spec.full_scale,
                                    sample_rate=spec.sample_rate,
                                    rng=rng, chunk_size=chunk_size,
                                    plan=plan)

    def run_chips(self, wafer: Wafer, converters_per_chip: int,
                  rng: RngLike = None,
                  chunk_size: Optional[int] = None,
                  plan: Optional[ExecutionPlan] = None
                  ) -> BatchChipBistResult:
        """Batched multi-converter IC test under the partial scheme.

        Consecutive dies form one chip sharing the stimulus ramp; the chip
        passes when every converter on it passes its partial BIST.  With
        transition noise configured, chip ``c`` draws its per-converter
        noise from independent child generators seeded by
        :func:`~repro.production.batch_engine.chip_noise_seeds` — the same
        controller-parity scheme the full-BIST chip mode uses, so
        ``PartialBistEngine.run(die, rng=default_rng(child))`` with the
        chip's spawned children reproduces each converter's verdict bit
        for bit.
        """
        if self.config.transition_noise_lsb > 0.0:
            return self._run_chips_noisy(wafer, converters_per_chip, rng,
                                         chunk_size=chunk_size, plan=plan)
        result = self.run_wafer(wafer, rng=rng, chunk_size=chunk_size,
                                plan=plan)
        return build_chip_result(result.passed, converters_per_chip,
                                 result.samples_taken,
                                 wafer.spec.sample_rate)

    def _run_chips_noisy(self, wafer: Wafer, converters_per_chip: int,
                         rng: RngLike,
                         chunk_size: Optional[int] = None,
                         plan: Optional[ExecutionPlan] = None
                         ) -> BatchChipBistResult:
        """Chip mode with per-converter noise seeds (controller parity).

        Per-chip noise depends only on the chip's seed, so sharding the
        chip axis over workers is plan-invariant by construction.
        """
        if rng is not None and not isinstance(rng, (int, np.integer)):
            raise ValueError(
                "noisy chip runs take an integer seed (or None) so the "
                "per-converter child seeds match the scalar "
                "PartialBistEngine replay")
        transitions = wafer.transitions
        spec = wafer.spec
        ctx = self.prepare(transitions, spec.full_scale, spec.sample_rate)
        seeds = _validated_chip_seeds(transitions, converters_per_chip, rng)

        executor = ShardExecutor(plan if plan is not None
                                 else ExecutionPlan())
        bounds = executor.plan.shard_bounds(transitions.shape[0],
                                            align=converters_per_chip)
        chunk = (chunk_size if chunk_size is not None
                 else executor.plan.chunk_size)
        results = executor.map(
            self._noisy_chip_shard,
            [(ctx, transitions[lo:hi],
              seeds[lo // converters_per_chip:hi // converters_per_chip],
              converters_per_chip, chunk)
             for lo, hi in bounds])
        result = BatchPartialBistResult.merge(results)
        return build_chip_result(result.passed, converters_per_chip,
                                 ctx.n_samples, spec.sample_rate)

    def _noisy_chip_shard(self, ctx: _PartialShardContext,
                          transitions: np.ndarray, seeds: np.ndarray,
                          converters_per_chip: int,
                          chunk_size: Optional[int] = None
                          ) -> BatchPartialBistResult:
        """One chip-aligned device slice of a noisy chip-mode run."""
        cfg = self.config
        n_chips = transitions.shape[0] // converters_per_chip
        sigma = cfg.transition_noise_lsb * ctx.lsb_volts
        with backend_scope(ctx.backend):
            if chunk_size is None:
                chunk_size = _stream_chunk_size(transitions.shape[1],
                                                ctx.n_samples)
            chips_per_chunk = max(1, chunk_size // converters_per_chip)

            chunks = []
            for chip_lo, chip_hi in iter_slices(n_chips, chips_per_chunk):
                noise = _chip_noise_rows(seeds[chip_lo:chip_hi],
                                         converters_per_chip, sigma,
                                         ctx.n_samples)
                lo = chip_lo * converters_per_chip
                hi = chip_hi * converters_per_chip
                chunks.append(self._process_streams(
                    transitions[lo:hi], ctx.ramp_voltages + noise,
                    ctx.ramp_voltages, ctx.partition.q))
            return self._build_result(chunks, transitions.shape[0], ctx)

    def run_population(self, population: Union[DevicePopulation, Wafer],
                       rng: RngLike = None,
                       dnl_spec_lsb: Optional[float] = None,
                       inl_spec_lsb: Optional[float] = None,
                       plan: Optional[ExecutionPlan] = None
                       ) -> PopulationBistResult:
        """Monte-Carlo partial-BIST run scored against the true linearity.

        The partial-BIST analogue of
        :meth:`repro.production.batch_engine.BatchBistEngine.run_population`:
        every device's accept/reject decision is compared with its true
        static linearity, yielding measured type I/II rates.
        """
        cfg = self.config
        if dnl_spec_lsb is None:
            dnl_spec_lsb = cfg.dnl_spec_lsb
        if inl_spec_lsb is None:
            inl_spec_lsb = cfg.inl_spec_lsb
        transitions, full_scale, sample_rate = \
            resolve_population_matrix(population)
        result = self.run_transitions(transitions, full_scale=full_scale,
                                      sample_rate=sample_rate, rng=rng,
                                      plan=plan)
        truly_good = population_truth_mask(transitions, dnl_spec_lsb,
                                           inl_spec_lsb)
        return PopulationBistResult(n_devices=result.n_devices,
                                    accepted=result.passed,
                                    truly_good=truly_good)

    def run_transitions(self, transitions: np.ndarray,
                        full_scale: float = 1.0,
                        sample_rate: float = 1e6,
                        rng: RngLike = None,
                        chunk_size: Optional[int] = None,
                        plan: Optional[ExecutionPlan] = None
                        ) -> BatchPartialBistResult:
        """Run the batched partial BIST on a ``(devices, transitions)`` matrix.

        Parameters
        ----------
        transitions:
            Transition-voltage matrix, one row per device under test.
        full_scale, sample_rate:
            Geometry/clock shared by the batch (one test insertion).
        rng:
            Seed or generator for the acquisition noise.  Without a plan
            it is consumed in device order exactly as a scalar loop over
            the devices consumes it; with a plan it must be a seed (or
            ``None``) and per-shard child seeds are spawned from it.
        chunk_size:
            Devices processed per chunk (bounds the transient
            ``(devices, samples)`` matrices).
        plan:
            Optional :class:`~repro.production.execution.ExecutionPlan`
            scaling the run out over worker processes; results are
            bit-identical for any ``(workers, chunk_size)`` of the plan.
        """
        cfg = self.config
        transitions = np.asarray(transitions, dtype=float)
        if plan is not None:
            return ShardExecutor(plan).run(
                self, transitions, full_scale, sample_rate,
                rng=resolve_plan_seed(rng, cfg.seed), chunk_size=chunk_size)
        generator = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(
                         rng if rng is not None else cfg.seed))
        context = self.prepare(transitions, full_scale, sample_rate)
        return self.run_shard(context, transitions, generator, chunk_size)

    # ------------------------------------------------------------------ #
    # WaferEngine protocol
    # ------------------------------------------------------------------ #

    def prepare(self, transitions: np.ndarray, full_scale: float = 1.0,
                sample_rate: float = 1e6) -> _PartialShardContext:
        """Validate a batch and derive the shared per-run context."""
        cfg = self.config
        expected_cols = (1 << cfg.n_bits) - 1
        if transitions.ndim != 2 or transitions.shape[1] != expected_cols:
            raise ValueError(
                f"configuration is for {cfg.n_bits}-bit converters; expected "
                f"a (devices, {expected_cols}) transition matrix, got shape "
                f"{transitions.shape}")
        with current_telemetry().span("engine.partial.prepare",
                                      devices=int(transitions.shape[0])):
            proxy = IdealADC(cfg.n_bits, full_scale, sample_rate)
            ramp = RampStimulus.for_adc(proxy, cfg.samples_per_code,
                                        start_margin_lsb=cfg.start_margin_lsb)
            n_samples = ramp.n_samples_for_adc(
                proxy, margin_lsb=cfg.start_margin_lsb)
            times = np.arange(n_samples) / sample_rate
            return _PartialShardContext(
                ramp_voltages=ramp.voltage(times),
                n_samples=n_samples,
                lsb_volts=proxy.lsb,
                partition=self._scalar.partition_for(proxy),
                backend=resolve_backend_name(self._backend))

    def run_shard(self, context: _PartialShardContext,
                  transitions: np.ndarray, rng: RngLike = None,
                  chunk_size: Optional[int] = None
                  ) -> BatchPartialBistResult:
        """Run one contiguous device slice of a prepared batch."""
        transitions = np.asarray(transitions, dtype=float)
        generator = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(rng))
        with backend_scope(context.backend):
            event_path = self.config.transition_noise_lsb == 0.0
            if chunk_size is None:
                chunk_size = (
                    _event_chunk_size(transitions.shape[1],
                                      context.n_samples) if event_path
                    else _stream_chunk_size(transitions.shape[1],
                                            context.n_samples))
            if chunk_size < 1:
                raise ValueError("chunk_size must be positive")

            n_devices = transitions.shape[0]
            t = current_telemetry()
            if t.enabled:
                t.count("engine.partial.shards")
                t.count("engine.partial.devices", n_devices)
                t.count("engine.partial.samples",
                        n_devices * context.n_samples)
                t.count("engine.partial.event_path_devices" if event_path
                        else "engine.partial.stream_path_devices",
                        n_devices)
                t.count(f"kernel.{context.backend}.shards")
                t.count(f"kernel.{context.backend}.devices", n_devices)
            with t.span("engine.partial.run_shard", devices=n_devices):
                chunks = [self._run_chunk(transitions[lo:hi], context,
                                          generator)
                          for lo, hi in iter_slices(n_devices, chunk_size)]
                return self._build_result(chunks, n_devices, context)

    def merge(self, shard_results: Sequence[BatchPartialBistResult]
              ) -> BatchPartialBistResult:
        """Combine per-shard results (in shard order) into one result."""
        with current_telemetry().span("engine.partial.merge",
                                      shards=len(shard_results)):
            return BatchPartialBistResult.merge(shard_results)

    def _build_result(self, chunks, n_devices: int,
                      context: _PartialShardContext
                      ) -> BatchPartialBistResult:
        """Assemble per-chunk decision tuples into one result object."""
        return BatchPartialBistResult(
            n_devices=n_devices,
            passed=np.concatenate([c[0] for c in chunks]),
            linearity_passed=np.concatenate([c[1] for c in chunks]),
            msb_passed=np.concatenate([c[2] for c in chunks]),
            reconstruction_error_rate=np.concatenate(
                [c[3] for c in chunks]),
            measured_max_dnl_lsb=np.concatenate([c[4] for c in chunks]),
            measured_max_inl_lsb=np.concatenate([c[5] for c in chunks]),
            partition=context.partition,
            samples_taken=context.n_samples)

    # ------------------------------------------------------------------ #
    # Chunk processing
    # ------------------------------------------------------------------ #

    def _run_chunk(self, transitions: np.ndarray,
                   context: _PartialShardContext,
                   generator: np.random.Generator):
        """Acquisition → on-chip check → reconstruction for one chunk."""
        cfg = self.config
        q = context.partition.q
        if cfg.transition_noise_lsb > 0.0:
            # Per-device noise, drawn in device order from the shard's
            # stream (row d of the draw equals the d-th scalar draw).
            voltages = context.ramp_voltages + generator.normal(
                0.0, cfg.transition_noise_lsb * context.lsb_volts,
                size=(transitions.shape[0], context.ramp_voltages.size))
            return self._process_streams(transitions, voltages,
                                         context.ramp_voltages, q)
        return self._run_chunk_events(transitions, context.ramp_voltages, q)

    def _run_chunk_events(self, transitions: np.ndarray,
                          ramp_voltages: np.ndarray, q: int):
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
        n_samples = ramp_voltages.size
        mask = (1 << q) - 1

        crossing = shared_crossing_indices(transitions, ramp_voltages)
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
        return self._decide(counts, msb_ok, errors)

    def _process_streams(self, transitions: np.ndarray,
                         voltages: np.ndarray, ramp_voltages: np.ndarray,
                         q: int):
        """Quantise per-device voltage rows and run the partial flow.

        The noise-provenance-agnostic half of the stream path: callers
        decide how the per-device voltages were produced (shard stream in
        device order, or per-converter child generators in chip mode).
        """
        cfg = self.config
        n_chunk = transitions.shape[0]
        n_codes = 1 << cfg.n_bits

        codes = batch_quantise_rows(transitions, voltages, ramp_voltages)

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
        return self._decide(counts, msb_ok, errors)

    def _decide(self, counts: np.ndarray, msb_ok: np.ndarray,
                errors: np.ndarray):
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

        return (linearity_ok & msb_ok, linearity_ok, msb_ok, errors,
                max_dnl, max_inl)
