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
    :func:`repro.core.kernel.batch_quantise_rows`, each row drawn from its
    device's keyed stream (:class:`repro.core.noise.DeviceNoise`), the
    stream the scalar test draws for that device.  DNL/INL and
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

Both are built on the :class:`~repro.production.execution.WaferEngine`
skeleton of the batch BIST engines, which draws the noise, quantises the
chunks and merges the results; they supply only their per-run context and
chunk kernel.  That shared ``run_wafer`` / ``run_transitions`` surface is
what lets :class:`~repro.production.line.ScreeningLine` mount them as
alternative screening stations (``method="histogram"`` / ``"dynamic"``)
with per-method tester-time economics, and either can be scaled out over
worker processes with an
:class:`~repro.production.execution.ExecutionPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.adc.ideal import IdealADC
from repro.analysis.dynamic import DynamicAnalyzer, DynamicSpec
from repro.analysis.histogram import HistogramTest
from repro.core.kernel import (
    auto_chunk_size,
    batch_code_histogram,
    batch_histogram_linearity,
    batch_shared_ramp_histogram,
    code_dtype,
)
from repro.production.execution import ConcatResult, ShardContext, WaferEngine
from repro.signals.ramp import RampStimulus
from repro.signals.sine import SineStimulus

__all__ = ["BatchHistogramResult", "BatchHistogramTest",
           "BatchDynamicResult", "BatchDynamicSuite"]


def _analysis_chunk_size(n_transitions: int, n_samples: int,
                         fft_bytes: int = 0) -> int:
    """Default devices-per-chunk from the materialised per-row bytes.

    Both analysis engines materialise a float64 noise/voltage row plus a
    code row per device inside one chunk; the dynamic suite adds the
    windowed FFT work (``fft_bytes`` per sample).  Chunking is
    RNG-transparent, so this only moves the working-set size, never the
    results.
    """
    row = n_samples * (16 + code_dtype(n_transitions + 1).itemsize
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
class _HistogramShardContext(ShardContext):
    """Per-run state of a batched histogram run: adds the resolution."""

    n_bits: int


@dataclass(frozen=True)
class _DynamicShardContext(ShardContext):
    """Per-run state of a batched dynamic run: the spectrum geometry."""

    freqs: np.ndarray
    n_bits: int
    fundamental_hz: float
    sample_rate: float
    spec: DynamicSpec


@dataclass
class BatchHistogramResult(ConcatResult):
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


class BatchHistogramTest(WaferEngine):
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
    """

    name = "histogram"

    def __init__(self, samples_per_code: float = 64.0,
                 dnl_spec_lsb: float = 1.0,
                 inl_spec_lsb: Optional[float] = None,
                 transition_noise_lsb: float = 0.0,
                 seed: Optional[int] = None) -> None:
        # Validation and configuration live in the scalar test; the batch
        # object is a device-axis execution strategy, not a second config.
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

    @property
    def seed(self) -> Optional[int]:
        """Default seed of the acquisition noise."""
        return self._scalar.seed

    @classmethod
    def paper_production(cls, n_bits: int = 6, dnl_spec_lsb: float = 1.0,
                         **kwargs) -> "BatchHistogramTest":
        """The 4096-sample production test of section 4, batched."""
        samples_per_code = 4096.0 / (1 << n_bits)
        return cls(samples_per_code=samples_per_code,
                   dnl_spec_lsb=dnl_spec_lsb, **kwargs)

    # ------------------------------------------------------------------ #
    # Skeleton hooks
    # ------------------------------------------------------------------ #

    def _context(self, transitions: np.ndarray, full_scale: float,
                 sample_rate: float) -> _HistogramShardContext:
        """The shared ramp record, derived as ``HistogramTest.acquire``."""
        scalar = self._scalar
        n_bits = _infer_n_bits(transitions)
        proxy = IdealADC(n_bits, full_scale, sample_rate)
        ramp = RampStimulus.for_adc(proxy, scalar.samples_per_code)
        n_samples = ramp.n_samples_for_adc(proxy)
        times = np.arange(n_samples) / sample_rate
        return _HistogramShardContext(
            stimulus=ramp.voltage(times),
            noise_volts=scalar.transition_noise_lsb * proxy.lsb,
            event_path=scalar.transition_noise_lsb == 0.0,
            default_chunk=_analysis_chunk_size(transitions.shape[1],
                                               n_samples),
            n_bits=n_bits)

    def _run_chunk(self, context: _HistogramShardContext,
                   transitions: np.ndarray, codes: Optional[np.ndarray]
                   ) -> BatchHistogramResult:
        """Histogram one chunk and decide.

        Noise-free, the histogram follows from the sorted crossing indices
        alone and no per-sample matrix is materialised; otherwise it is
        counted from the quantised codes, which a ``(devices, 2**n - 1)``
        transition matrix keeps within ``[0, 2**n)``.
        """
        if codes is None:
            counts = batch_shared_ramp_histogram(transitions,
                                                 context.stimulus)
        else:
            counts = batch_code_histogram(codes, 1 << context.n_bits)
        return self._evaluate(counts.astype(float), context.n_bits,
                              context.n_samples)

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
class BatchDynamicResult(ConcatResult):
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


class BatchDynamicSuite(WaferEngine):
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
    """

    name = "dynamic"

    def __init__(self, analyzer: Optional[DynamicAnalyzer] = None,
                 spec: Optional[DynamicSpec] = None,
                 target_frequency: Optional[float] = None,
                 amplitude_fraction: float = 0.49,
                 transition_noise_lsb: float = 0.0,
                 seed: Optional[int] = None) -> None:
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
    # Skeleton hooks
    # ------------------------------------------------------------------ #

    def _context(self, transitions: np.ndarray, full_scale: float,
                 sample_rate: float) -> _DynamicShardContext:
        """The shared coherent sine record and the spectrum geometry."""
        n_bits = _infer_n_bits(transitions)
        proxy = IdealADC(n_bits, full_scale, sample_rate)
        target = (self.target_frequency
                  if self.target_frequency is not None
                  else sample_rate / 50.0)
        n_samples = self.analyzer.n_samples
        stimulus = SineStimulus.for_adc(
            proxy, target, n_samples,
            amplitude_fraction=self.amplitude_fraction)
        times = np.arange(n_samples) / sample_rate
        return _DynamicShardContext(
            stimulus=stimulus.voltage(times),
            noise_volts=self.transition_noise_lsb * proxy.lsb,
            # The FFT suite always materialises the sample matrix.
            event_path=False,
            default_chunk=_analysis_chunk_size(
                transitions.shape[1], n_samples, fft_bytes=16),
            freqs=np.fft.rfftfreq(n_samples, d=1.0 / sample_rate),
            n_bits=n_bits,
            fundamental_hz=stimulus.frequency,
            sample_rate=sample_rate,
            spec=self.resolved_spec(n_bits))

    def _run_chunk(self, context: _DynamicShardContext,
                   transitions: np.ndarray, codes: Optional[np.ndarray]
                   ) -> BatchDynamicResult:
        """Windowed FFT and per-tone bookkeeping for one chunk.

        The fundamental is located per device as an index vector and every
        figure reduces along the bin axis — the scalar ``analyze_power``
        is the batch-of-1 wrapper of this same kernel, which keeps the
        figures bit-exact.
        """
        power = self.analyzer.windowed_power(codes)
        figures = self.analyzer.analyze_power_batch(
            power, context.freqs, context.fundamental_hz,
            context.sample_rate)
        return BatchDynamicResult(
            n_devices=codes.shape[0],
            passed=context.spec.passes_batch(figures),
            enob=figures.enob,
            sinad_db=figures.sinad_db,
            snr_db=figures.snr_db,
            thd_db=figures.thd_db,
            sfdr_db=figures.sfdr_db,
            spec=context.spec,
            fundamental_hz=context.fundamental_hz,
            samples_taken=context.n_samples,
            n_bits=context.n_bits)
