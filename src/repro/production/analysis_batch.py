"""Vectorised conventional-test analysis: histogram and dynamic suites.

The paper's headline comparison pits the count-limit BIST against the
*conventional* production flow — the ramp code-density (histogram) test and
the FFT-based dynamic suite.  The BIST side of that comparison has run
wafer-wide since the batch engines landed; this module brings the
conventional side onto the same device-axis kernel so the BIST-vs-
conventional trade-off (yield, escapes, tester time, data volume) can be
reproduced at production scale on one shared wafer draw.

Two batch analysers are provided, both bit-exact against their scalar
counterparts:

:class:`BatchHistogramTest`
    The conventional ramp histogram test
    (:class:`~repro.analysis.histogram.HistogramTest`) across the device
    axis.  Noise-free acquisitions collapse to the crossing-event histogram
    of :func:`repro.core.kernel.batch_shared_ramp_histogram` (the
    ``(devices, samples)`` code matrix never exists); noisy acquisitions
    quantise per-device voltage rows with
    :func:`repro.core.kernel.batch_quantise_rows`, consuming the shared
    generator in device order exactly as a scalar loop would.  DNL/INL and
    the pass/fail decisions come from the shared
    :func:`repro.core.kernel.batch_histogram_linearity` kernel, the same
    reductions the scalar :func:`repro.analysis.linearity.dnl_from_histogram`
    performs.

:class:`BatchDynamicSuite`
    The single-tone dynamic test
    (:class:`~repro.analysis.dynamic.DynamicAnalyzer`) across the device
    axis: one shared coherent sine stimulus, batched quantisation, one
    batched windowed FFT (:meth:`DynamicAnalyzer.windowed_power`) and the
    vectorised per-tone bookkeeping
    (:meth:`DynamicAnalyzer.analyze_power_batch`, a per-device
    fundamental-bin index matrix instead of a per-device Python loop) — so
    THD, SNR, SINAD, ENOB and SFDR equal the scalar ``measure`` figures
    bit for bit, and a :class:`~repro.analysis.dynamic.DynamicSpec` turns
    them into screening decisions.

Both expose the ``run_wafer`` / ``run_transitions`` protocol of the batch
BIST engines, which is what lets :class:`~repro.production.line.ScreeningLine`
mount them as alternative screening stations (``method="histogram"`` /
``"dynamic"``) with per-method tester-time economics, and both implement
the :class:`~repro.production.execution.WaferEngine` shard protocol, so
either can be scaled out over worker processes with an
:class:`~repro.production.execution.ExecutionPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.adc.ideal import IdealADC
from repro.analysis.dynamic import DynamicAnalyzer, DynamicSpec
from repro.analysis.histogram import HistogramTest
from repro.core.backend import (
    auto_chunk_size,
    backend_scope,
    current_backend,
    resolve_backend_name,
)
from repro.core.kernel import (
    batch_code_histogram,
    batch_histogram_linearity,
    batch_quantise_rows,
    batch_shared_ramp_histogram,
)
from repro.production.execution import (
    ExecutionPlan,
    ShardExecutor,
    iter_slices,
    resolve_plan_seed,
)
from repro.production.lot import Wafer
from repro.signals.ramp import RampStimulus
from repro.signals.sine import SineStimulus
from repro.telemetry.core import current_telemetry

__all__ = ["BatchHistogramResult", "BatchHistogramTest",
           "BatchDynamicResult", "BatchDynamicSuite"]

RngLike = Union[int, np.random.Generator, None]

def _analysis_chunk_size(n_transitions: int, n_samples: int,
                         fft_bytes: int = 0) -> int:
    """Default devices-per-chunk from the materialised per-row bytes.

    Both analysis engines materialise a float64 noise/voltage row plus a
    code row in the active backend's code dtype per device inside one
    chunk; the dynamic suite adds the windowed FFT work (``fft_bytes``
    per sample).  Compacted code dtypes shrink the row and widen the
    default chunk; chunking is RNG-transparent, so this only moves the
    working-set size, never the results.
    """
    backend = current_backend()
    row = n_samples * (16 + backend.code_dtype(n_transitions + 1).itemsize
                       + fft_bytes)
    return auto_chunk_size(row)


def _infer_n_bits(transitions: np.ndarray) -> int:
    """Resolution implied by a ``(devices, 2**n - 1)`` transition matrix."""
    if transitions.ndim != 2:
        raise ValueError("transitions must be a (devices, levels) matrix")
    n_codes = transitions.shape[1] + 1
    n_bits = n_codes.bit_length() - 1
    if (1 << n_bits) != n_codes or n_bits < 2:
        raise ValueError(
            f"a transition matrix needs 2**n - 1 columns for n >= 2 bits, "
            f"got {transitions.shape[1]}")
    return n_bits


@dataclass(frozen=True)
class _HistogramShardContext:
    """Per-run state shared by every shard of one batched histogram run."""

    ramp_voltages: np.ndarray
    n_samples: int
    n_bits: int
    lsb_volts: float
    backend: str = "numpy"


@dataclass(frozen=True)
class _DynamicShardContext:
    """Per-run state shared by every shard of one batched dynamic run."""

    sine_voltages: np.ndarray
    freqs: np.ndarray
    n_samples: int
    n_bits: int
    lsb_volts: float
    fundamental_hz: float
    sample_rate: float
    spec: DynamicSpec
    backend: str = "numpy"


@dataclass
class BatchHistogramResult:
    """Per-device outcome of one batched conventional histogram test.

    All arrays have one entry per device; ``passed`` matches what the
    scalar :class:`~repro.analysis.histogram.HistogramTest` decides for
    each device individually (devices whose inner histogram is empty — the
    case the scalar test raises on — fail with NaN estimates).
    """

    n_devices: int
    counts: np.ndarray
    passed: np.ndarray
    measurable: np.ndarray
    measured_max_dnl_lsb: np.ndarray
    measured_max_inl_lsb: np.ndarray
    dnl_spec_lsb: float
    inl_spec_lsb: Optional[float]
    samples_per_code: float
    samples_taken: int
    n_bits: int

    @property
    def n_accepted(self) -> int:
        """Number of devices the histogram test accepted."""
        return int(np.count_nonzero(self.passed))

    @property
    def accept_fraction(self) -> float:
        """Fraction of devices accepted."""
        return self.n_accepted / self.n_devices if self.n_devices else 0.0

    @property
    def bits_transferred_per_device(self) -> int:
        """Output bits the tester captures per device (full words)."""
        return self.samples_taken * self.n_bits

    @property
    def off_chip_bits_transferred(self) -> int:
        """Total tester capture volume of the batch."""
        return self.bits_transferred_per_device * self.n_devices

    def estimated_code_widths_lsb(self) -> np.ndarray:
        """Per-device inner code widths as the histogram estimates them.

        With a linear ramp the expected hits per code are proportional to
        the code width; at ``samples_per_code`` samples per ideal LSB the
        width estimate is simply ``counts / samples_per_code``.  This is
        the quantity the convergence property tests pin against the drawn
        ``code_width_matrix_lsb``.
        """
        return self.counts[:, 1:-1] / self.samples_per_code

    @classmethod
    def merge(cls, shards: "Sequence[BatchHistogramResult]"
              ) -> "BatchHistogramResult":
        """Concatenate per-shard results (in shard order) into one batch.

        The shards must come from one run: same stimulus, specification
        and resolution.  This is the ``merge`` leg of the
        :class:`~repro.production.execution.WaferEngine` protocol.
        """
        shards = list(shards)
        if not shards:
            raise ValueError("cannot merge an empty shard list")
        first = shards[0]
        if any(s.samples_taken != first.samples_taken
               or s.n_bits != first.n_bits for s in shards):
            raise ValueError("shards disagree on the stimulus or "
                             "resolution")
        return cls(
            n_devices=sum(s.n_devices for s in shards),
            counts=np.concatenate([s.counts for s in shards]),
            passed=np.concatenate([s.passed for s in shards]),
            measurable=np.concatenate([s.measurable for s in shards]),
            measured_max_dnl_lsb=np.concatenate(
                [s.measured_max_dnl_lsb for s in shards]),
            measured_max_inl_lsb=np.concatenate(
                [s.measured_max_inl_lsb for s in shards]),
            dnl_spec_lsb=first.dnl_spec_lsb,
            inl_spec_lsb=first.inl_spec_lsb,
            samples_per_code=first.samples_per_code,
            samples_taken=first.samples_taken,
            n_bits=first.n_bits)


class BatchHistogramTest:
    """Run the conventional ramp histogram test on a whole batch at once.

    Parameters mirror :class:`~repro.analysis.histogram.HistogramTest`
    exactly (the scalar test is kept as the batch-of-1 reference); both
    derive the identical ramp and decision logic.

    Parameters
    ----------
    samples_per_code:
        Average number of samples falling into each code bin.
    dnl_spec_lsb, inl_spec_lsb:
        Specification for the pass/fail decision, in LSB.
    transition_noise_lsb:
        Converter input-referred noise used during the acquisition.
    seed:
        Default seed for the acquisition noise.
    backend:
        Kernel backend name (see :mod:`repro.core.backend`); ``None``
        resolves the ambient/default backend at ``prepare`` time.
    """

    def __init__(self, samples_per_code: float = 64.0,
                 dnl_spec_lsb: float = 1.0,
                 inl_spec_lsb: Optional[float] = None,
                 transition_noise_lsb: float = 0.0,
                 seed: Optional[int] = None, *,
                 backend: Optional[str] = None) -> None:
        # Validation and configuration live in the scalar test; the batch
        # object is a device-axis execution strategy, not a second config.
        self._backend = backend
        self._scalar = HistogramTest(
            samples_per_code=samples_per_code,
            dnl_spec_lsb=dnl_spec_lsb,
            inl_spec_lsb=inl_spec_lsb,
            transition_noise_lsb=transition_noise_lsb,
            seed=seed)

    @property
    def scalar(self) -> HistogramTest:
        """The scalar batch-of-1 reference test."""
        return self._scalar

    @property
    def samples_per_code(self) -> float:
        """Ramp density in samples per ideal LSB."""
        return self._scalar.samples_per_code

    @property
    def dnl_spec_lsb(self) -> float:
        """DNL specification in LSB."""
        return self._scalar.dnl_spec_lsb

    @property
    def inl_spec_lsb(self) -> Optional[float]:
        """INL specification in LSB (``None`` disables the INL check)."""
        return self._scalar.inl_spec_lsb

    @classmethod
    def paper_production(cls, n_bits: int = 6, dnl_spec_lsb: float = 1.0,
                         **kwargs) -> "BatchHistogramTest":
        """The 4096-sample production test of section 4, batched."""
        samples_per_code = 4096.0 / (1 << n_bits)
        return cls(samples_per_code=samples_per_code,
                   dnl_spec_lsb=dnl_spec_lsb, **kwargs)

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def run_wafer(self, wafer: Wafer, rng: RngLike = None,
                  chunk_size: Optional[int] = None,
                  plan: Optional[ExecutionPlan] = None
                  ) -> BatchHistogramResult:
        """Run the batched histogram test on every die of a wafer."""
        spec = wafer.spec
        return self.run_transitions(wafer.transitions,
                                    full_scale=spec.full_scale,
                                    sample_rate=spec.sample_rate,
                                    rng=rng, chunk_size=chunk_size,
                                    plan=plan)

    def run_transitions(self, transitions: np.ndarray,
                        full_scale: float = 1.0,
                        sample_rate: float = 1e6,
                        rng: RngLike = None,
                        chunk_size: Optional[int] = None,
                        plan: Optional[ExecutionPlan] = None
                        ) -> BatchHistogramResult:
        """Run the batched histogram test on a transition-voltage matrix.

        Parameters
        ----------
        transitions:
            ``(devices, 2**n - 1)`` transition matrix, one row per device.
        full_scale, sample_rate:
            Geometry/clock shared by the batch.
        rng:
            Seed or generator for the acquisition noise.  Without a plan
            it is consumed in device order exactly as a scalar loop over
            the devices consumes a shared generator; with a plan it must
            be a seed (or ``None``) and per-shard child seeds are spawned
            from it.
        chunk_size:
            Devices processed per chunk on the noisy path (bounds the
            transient ``(devices, samples)`` matrices).
        plan:
            Optional :class:`~repro.production.execution.ExecutionPlan`
            scaling the run out over worker processes; results are
            bit-identical for any ``(workers, chunk_size)`` of the plan.
        """
        scalar = self._scalar
        transitions = np.asarray(transitions, dtype=float)
        if plan is not None:
            return ShardExecutor(plan).run(
                self, transitions, full_scale, sample_rate,
                rng=resolve_plan_seed(rng, scalar.seed),
                chunk_size=chunk_size)
        generator = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(
                         rng if rng is not None else scalar.seed))
        context = self.prepare(transitions, full_scale, sample_rate)
        return self.run_shard(context, transitions, generator, chunk_size)

    # ------------------------------------------------------------------ #
    # WaferEngine protocol
    # ------------------------------------------------------------------ #

    def prepare(self, transitions: np.ndarray, full_scale: float = 1.0,
                sample_rate: float = 1e6) -> _HistogramShardContext:
        """Validate a batch and derive the shared per-run context."""
        scalar = self._scalar
        with current_telemetry().span("engine.histogram.prepare",
                                      devices=int(transitions.shape[0])):
            n_bits = _infer_n_bits(transitions)
            proxy = IdealADC(n_bits, full_scale, sample_rate)
            # Identical stimulus derivation to HistogramTest.acquire.
            ramp = RampStimulus.for_adc(proxy, scalar.samples_per_code)
            n_samples = ramp.n_samples_for_adc(proxy)
            times = np.arange(n_samples) / sample_rate
            return _HistogramShardContext(
                ramp_voltages=ramp.voltage(times),
                n_samples=n_samples,
                n_bits=n_bits,
                lsb_volts=proxy.lsb,
                backend=resolve_backend_name(self._backend))

    def run_shard(self, context: _HistogramShardContext,
                  transitions: np.ndarray, rng: RngLike = None,
                  chunk_size: Optional[int] = None) -> BatchHistogramResult:
        """Run one contiguous device slice of a prepared batch."""
        scalar = self._scalar
        transitions = np.asarray(transitions, dtype=float)
        generator = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(rng))
        with backend_scope(context.backend):
            if chunk_size is None:
                chunk_size = _analysis_chunk_size(transitions.shape[1],
                                                  context.n_samples)
            if chunk_size < 1:
                raise ValueError("chunk_size must be positive")

            n_devices = transitions.shape[0]
            n_codes = 1 << context.n_bits
            t = current_telemetry()
            if t.enabled:
                t.count("engine.histogram.shards")
                t.count("engine.histogram.devices", n_devices)
                t.count("engine.histogram.samples",
                        n_devices * context.n_samples)
                t.count("engine.histogram.event_path_devices"
                        if scalar.transition_noise_lsb == 0.0
                        else "engine.histogram.stream_path_devices",
                        n_devices)
                t.count(f"kernel.{context.backend}.shards")
                t.count(f"kernel.{context.backend}.devices", n_devices)
            with t.span("engine.histogram.run_shard", devices=n_devices):
                if scalar.transition_noise_lsb > 0.0:
                    counts = np.empty((n_devices, n_codes), dtype=float)
                    for lo, hi in iter_slices(n_devices, chunk_size):
                        chunk = transitions[lo:hi]
                        # Per-device noise rows, drawn in device order from
                        # the shard's stream (row d is the d-th scalar draw).
                        voltages = context.ramp_voltages + generator.normal(
                            0.0,
                            scalar.transition_noise_lsb * context.lsb_volts,
                            size=(chunk.shape[0], context.n_samples))
                        codes = batch_quantise_rows(
                            chunk, voltages, context.ramp_voltages)
                        # Codes from a (devices, 2**n - 1) transition matrix
                        # are within [0, n_codes), as the kernel requires.
                        counts[lo:hi] = batch_code_histogram(codes, n_codes)
                else:
                    # Event path: the histogram follows from the sorted
                    # crossing indices alone; no per-sample matrix is ever
                    # materialised.
                    counts = batch_shared_ramp_histogram(
                        transitions, context.ramp_voltages).astype(float)

                return self._evaluate(counts, context.n_bits,
                                      context.n_samples)

    def merge(self, shard_results: Sequence[BatchHistogramResult]
              ) -> BatchHistogramResult:
        """Combine per-shard results (in shard order) into one result."""
        with current_telemetry().span("engine.histogram.merge",
                                      shards=len(shard_results)):
            return BatchHistogramResult.merge(shard_results)

    def _evaluate(self, counts: np.ndarray, n_bits: int,
                  n_samples: int) -> BatchHistogramResult:
        """Histogram → DNL/INL → pass/fail over the device axis."""
        scalar = self._scalar
        dnl, inl, measurable = batch_histogram_linearity(counts)
        max_dnl = np.abs(dnl).max(axis=1)
        max_inl = np.abs(inl).max(axis=1)
        passed = measurable & (max_dnl <= scalar.dnl_spec_lsb)
        if scalar.inl_spec_lsb is not None:
            passed &= max_inl <= scalar.inl_spec_lsb
        max_dnl = np.where(measurable, max_dnl, np.nan)
        max_inl = np.where(measurable, max_inl, np.nan)
        return BatchHistogramResult(
            n_devices=counts.shape[0],
            counts=counts,
            passed=passed,
            measurable=measurable,
            measured_max_dnl_lsb=max_dnl,
            measured_max_inl_lsb=max_inl,
            dnl_spec_lsb=scalar.dnl_spec_lsb,
            inl_spec_lsb=scalar.inl_spec_lsb,
            samples_per_code=scalar.samples_per_code,
            samples_taken=n_samples,
            n_bits=n_bits)


@dataclass
class BatchDynamicResult:
    """Per-device outcome of one batched dynamic (FFT) test.

    All figure-of-merit arrays have one entry per device and equal, bit
    for bit, what :meth:`repro.analysis.dynamic.DynamicAnalyzer.measure`
    reports for each device individually under the shared-generator
    convention.
    """

    n_devices: int
    passed: np.ndarray
    enob: np.ndarray
    sinad_db: np.ndarray
    snr_db: np.ndarray
    thd_db: np.ndarray
    sfdr_db: np.ndarray
    spec: DynamicSpec
    fundamental_hz: float
    samples_taken: int
    n_bits: int

    @property
    def n_accepted(self) -> int:
        """Number of devices the dynamic suite accepted."""
        return int(np.count_nonzero(self.passed))

    @property
    def accept_fraction(self) -> float:
        """Fraction of devices accepted."""
        return self.n_accepted / self.n_devices if self.n_devices else 0.0

    @property
    def bits_transferred_per_device(self) -> int:
        """Output bits the tester captures per device (full words)."""
        return self.samples_taken * self.n_bits

    @property
    def enob_shortfall_lsb(self) -> np.ndarray:
        """Effective-bit loss ``n_bits - ENOB`` (the binning metric).

        The dynamic analogue of the measured |DNL| the BIST/histogram
        stations bin on: 0 is a perfect converter, larger is worse, and
        the scale (fractions of a bit) is comparable to LSB units.
        """
        return np.maximum(self.n_bits - self.enob, 0.0)

    @classmethod
    def merge(cls, shards: "Sequence[BatchDynamicResult]"
              ) -> "BatchDynamicResult":
        """Concatenate per-shard results (in shard order) into one batch.

        The shards must come from one run: same stimulus, record length
        and pass/fail limits.  This is the ``merge`` leg of the
        :class:`~repro.production.execution.WaferEngine` protocol.
        """
        shards = list(shards)
        if not shards:
            raise ValueError("cannot merge an empty shard list")
        first = shards[0]
        if any(s.samples_taken != first.samples_taken
               or s.fundamental_hz != first.fundamental_hz
               or s.n_bits != first.n_bits for s in shards):
            raise ValueError("shards disagree on the stimulus or record")
        return cls(
            n_devices=sum(s.n_devices for s in shards),
            passed=np.concatenate([s.passed for s in shards]),
            enob=np.concatenate([s.enob for s in shards]),
            sinad_db=np.concatenate([s.sinad_db for s in shards]),
            snr_db=np.concatenate([s.snr_db for s in shards]),
            thd_db=np.concatenate([s.thd_db for s in shards]),
            sfdr_db=np.concatenate([s.sfdr_db for s in shards]),
            spec=first.spec,
            fundamental_hz=first.fundamental_hz,
            samples_taken=first.samples_taken,
            n_bits=first.n_bits)


class BatchDynamicSuite:
    """Run the single-tone dynamic test on a whole batch at once.

    One coherent sine (shared by the batch geometry) drives every device;
    acquisition, windowed FFT *and* the per-tone bookkeeping
    (:meth:`~repro.analysis.dynamic.DynamicAnalyzer.analyze_power_batch`,
    with a per-device fundamental-bin index matrix) all run across the
    device axis — and the scalar
    :meth:`~repro.analysis.dynamic.DynamicAnalyzer.analyze_power` is the
    batch-of-1 wrapper of that same kernel, so the figures of merit match
    a scalar loop bit for bit.

    Parameters
    ----------
    analyzer:
        The FFT analysis configuration (record length, window, harmonic
        count); defaults to a 4096-sample Hann analyzer.
    spec:
        Pass/fail limits; defaults to an ENOB floor one bit below the
        nominal resolution (resolved per batch, since the analyzer does
        not know ``n_bits``).
    target_frequency:
        Requested sine frequency; defaults to ``sample_rate / 50`` and is
        snapped to the nearest coherent frequency, as in the scalar
        ``measure``.
    amplitude_fraction:
        Sine amplitude as a fraction of full scale.
    transition_noise_lsb:
        Converter input-referred noise during the acquisition.
    seed:
        Default seed for the acquisition noise.
    backend:
        Kernel backend name (see :mod:`repro.core.backend`); ``None``
        resolves the ambient/default backend at ``prepare`` time.
    """

    def __init__(self, analyzer: Optional[DynamicAnalyzer] = None,
                 spec: Optional[DynamicSpec] = None,
                 target_frequency: Optional[float] = None,
                 amplitude_fraction: float = 0.49,
                 transition_noise_lsb: float = 0.0,
                 seed: Optional[int] = None, *,
                 backend: Optional[str] = None) -> None:
        self._backend = backend
        self.analyzer = analyzer if analyzer is not None else DynamicAnalyzer()
        self.spec = spec
        self.target_frequency = target_frequency
        self.amplitude_fraction = float(amplitude_fraction)
        self.transition_noise_lsb = float(transition_noise_lsb)
        self.seed = seed

    def resolved_spec(self, n_bits: int) -> DynamicSpec:
        """The pass/fail limits used for an ``n_bits`` batch."""
        if self.spec is not None:
            return self.spec
        return DynamicSpec(min_enob=float(n_bits) - 1.0)

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def run_wafer(self, wafer: Wafer, rng: RngLike = None,
                  chunk_size: Optional[int] = None,
                  plan: Optional[ExecutionPlan] = None
                  ) -> BatchDynamicResult:
        """Run the batched dynamic suite on every die of a wafer."""
        spec = wafer.spec
        return self.run_transitions(wafer.transitions,
                                    full_scale=spec.full_scale,
                                    sample_rate=spec.sample_rate,
                                    rng=rng, chunk_size=chunk_size,
                                    plan=plan)

    def run_transitions(self, transitions: np.ndarray,
                        full_scale: float = 1.0,
                        sample_rate: float = 1e6,
                        rng: RngLike = None,
                        chunk_size: Optional[int] = None,
                        plan: Optional[ExecutionPlan] = None
                        ) -> BatchDynamicResult:
        """Run the batched dynamic suite on a transition-voltage matrix.

        Parameters follow :meth:`BatchHistogramTest.run_transitions`;
        without a plan the shared generator is consumed in device order,
        matching a scalar loop calling
        ``analyzer.measure(device, rng=generator)``.
        """
        transitions = np.asarray(transitions, dtype=float)
        if plan is not None:
            return ShardExecutor(plan).run(
                self, transitions, full_scale, sample_rate,
                rng=resolve_plan_seed(rng, self.seed),
                chunk_size=chunk_size)
        generator = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(
                         rng if rng is not None else self.seed))
        context = self.prepare(transitions, full_scale, sample_rate)
        return self.run_shard(context, transitions, generator, chunk_size)

    # ------------------------------------------------------------------ #
    # WaferEngine protocol
    # ------------------------------------------------------------------ #

    def prepare(self, transitions: np.ndarray, full_scale: float = 1.0,
                sample_rate: float = 1e6) -> _DynamicShardContext:
        """Validate a batch and derive the shared per-run context."""
        analyzer = self.analyzer
        with current_telemetry().span("engine.dynamic.prepare",
                                      devices=int(transitions.shape[0])):
            n_bits = _infer_n_bits(transitions)
            proxy = IdealADC(n_bits, full_scale, sample_rate)
            target = (self.target_frequency
                      if self.target_frequency is not None
                      else sample_rate / 50.0)
            n_samples = analyzer.n_samples
            stimulus = SineStimulus.for_adc(
                proxy, target, n_samples,
                amplitude_fraction=self.amplitude_fraction)
            times = np.arange(n_samples) / sample_rate
            return _DynamicShardContext(
                sine_voltages=stimulus.voltage(times),
                freqs=np.fft.rfftfreq(n_samples, d=1.0 / sample_rate),
                n_samples=n_samples,
                n_bits=n_bits,
                lsb_volts=proxy.lsb,
                fundamental_hz=stimulus.frequency,
                sample_rate=sample_rate,
                spec=self.resolved_spec(n_bits),
                backend=resolve_backend_name(self._backend))

    def run_shard(self, context: _DynamicShardContext,
                  transitions: np.ndarray, rng: RngLike = None,
                  chunk_size: Optional[int] = None) -> BatchDynamicResult:
        """Run one contiguous device slice of a prepared batch."""
        analyzer = self.analyzer
        transitions = np.asarray(transitions, dtype=float)
        generator = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(rng))
        with backend_scope(context.backend):
            if chunk_size is None:
                chunk_size = _analysis_chunk_size(
                    transitions.shape[1], context.n_samples, fft_bytes=16)
            if chunk_size < 1:
                raise ValueError("chunk_size must be positive")

            n_devices = transitions.shape[0]
            n_samples = context.n_samples
            spec = context.spec
            t = current_telemetry()
            if t.enabled:
                t.count("engine.dynamic.shards")
                t.count("engine.dynamic.devices", n_devices)
                t.count("engine.dynamic.samples", n_devices * n_samples)
                # The FFT suite always materialises the sample matrix; the
                # noise-free case is still the cheap shared-stimulus path.
                t.count("engine.dynamic.event_path_devices"
                        if self.transition_noise_lsb == 0.0
                        else "engine.dynamic.stream_path_devices", n_devices)
                t.count(f"kernel.{context.backend}.shards")
                t.count(f"kernel.{context.backend}.devices", n_devices)
            with t.span("engine.dynamic.run_shard", devices=n_devices):
                chunks = []
                for lo, hi in iter_slices(n_devices, chunk_size):
                    chunk = transitions[lo:hi]
                    if self.transition_noise_lsb > 0.0:
                        voltages = context.sine_voltages + generator.normal(
                            0.0,
                            self.transition_noise_lsb * context.lsb_volts,
                            size=(chunk.shape[0], n_samples))
                    else:
                        voltages = np.broadcast_to(
                            context.sine_voltages,
                            (chunk.shape[0], n_samples))
                    codes = batch_quantise_rows(chunk, voltages,
                                                context.sine_voltages)
                    power = analyzer.windowed_power(codes)
                    # Vectorised per-tone bookkeeping: the fundamental is
                    # located per device as an index vector and every figure
                    # reduces along the bin axis — the scalar analyze_power
                    # is the batch-of-1 wrapper of this same kernel, which
                    # keeps the figures bit-exact.
                    chunks.append(analyzer.analyze_power_batch(
                        power, context.freqs, context.fundamental_hz,
                        context.sample_rate))

                return BatchDynamicResult(
                    n_devices=n_devices,
                    passed=np.concatenate(
                        [spec.passes_batch(c) for c in chunks]),
                    enob=np.concatenate([c.enob for c in chunks]),
                    sinad_db=np.concatenate([c.sinad_db for c in chunks]),
                    snr_db=np.concatenate([c.snr_db for c in chunks]),
                    thd_db=np.concatenate([c.thd_db for c in chunks]),
                    sfdr_db=np.concatenate([c.sfdr_db for c in chunks]),
                    spec=spec,
                    fundamental_hz=context.fundamental_hz,
                    samples_taken=n_samples,
                    n_bits=context.n_bits)

    def merge(self, shard_results: Sequence[BatchDynamicResult]
              ) -> BatchDynamicResult:
        """Combine per-shard results (in shard order) into one result."""
        with current_telemetry().span("engine.dynamic.merge",
                                      shards=len(shard_results)):
            return BatchDynamicResult.merge(shard_results)
