"""Dynamic (FFT-based) converter tests: THD, SNR, SINAD, ENOB, SFDR.

Section 2 of the paper names Total Harmonic Distortion and noise power as
the main *dynamic* test parameters and states that the proposed partial-BIST
partition supports them as well (with more LSBs observed externally because
the stimulus frequency is higher — Equation (1)).  This module supplies the
measurement side: a windowed-FFT spectrum analyzer over the output codes of a
converter driven with a (coherent) sine, and the standard single-tone figures
of merit derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.adc.base import ADC
from repro.signals.sine import SineStimulus

__all__ = ["SpectrumResult", "SpectrumFigures", "DynamicAnalyzer",
           "DynamicSpec"]

RngLike = Union[int, np.random.Generator, None]

#: Supported window functions and their generators.
_WINDOWS = {
    "rect": lambda n: np.ones(n),
    "hann": lambda n: np.hanning(n),
    "hamming": lambda n: np.hamming(n),
    "blackman": lambda n: np.blackman(n),
}


@dataclass
class SpectrumResult:
    """Single-tone FFT analysis of a converter output record.

    Attributes
    ----------
    frequencies:
        Frequency of each analysed bin in Hz.
    power:
        Power of each bin (linear, normalised to the fundamental's power
        being the actual signal power).
    fundamental_bin:
        Index of the fundamental in the ``frequencies`` array.
    signal_power, noise_power, distortion_power:
        Power of the fundamental, of the noise floor, and of the summed
        harmonics.
    thd_db:
        Total harmonic distortion in dB (negative; further below zero is
        better).
    snr_db, sinad_db, sfdr_db:
        Signal-to-noise ratio, signal-to-noise-and-distortion and spurious
        free dynamic range in dB.
    enob:
        Effective number of bits, ``(SINAD - 1.76) / 6.02``.
    """

    frequencies: np.ndarray
    power: np.ndarray
    fundamental_bin: int
    signal_power: float
    noise_power: float
    distortion_power: float
    thd_db: float
    snr_db: float
    sinad_db: float
    sfdr_db: float
    enob: float


def _db_ratio_rows(numerator: np.ndarray, denominator: np.ndarray,
                   zero_denominator_db: float) -> np.ndarray:
    """Per-device ``10 log10(numerator / denominator)`` with the scalar
    guard semantics: a non-positive ratio gives ``-inf`` and a zero
    denominator gives ``zero_denominator_db`` (``+inf`` for SNR-like
    figures, ``-inf`` for THD)."""
    out = np.full(numerator.shape, float(zero_denominator_db))
    ok = denominator > 0.0
    ratio = np.where(ok, numerator, 0.0) / np.where(ok, denominator, 1.0)
    positive = ratio > 0.0
    with np.errstate(divide="ignore"):
        values = np.where(positive,
                          10.0 * np.log10(np.where(positive, ratio, 1.0)),
                          -np.inf)
    out[ok] = values[ok]
    return out


@dataclass
class SpectrumFigures:
    """Single-tone figures of merit for a whole batch of spectra.

    The vectorised counterpart of :class:`SpectrumResult`: every attribute
    is a per-device array, produced by
    :meth:`DynamicAnalyzer.analyze_power_batch` from a ``(devices, bins)``
    power matrix.  Row ``d`` equals, bit for bit, the figures
    :meth:`DynamicAnalyzer.analyze_power` reports for spectrum ``d`` alone
    (the scalar method is the batch-of-1 wrapper).
    """

    fundamental_bin: np.ndarray
    signal_power: np.ndarray
    noise_power: np.ndarray
    distortion_power: np.ndarray
    thd_db: np.ndarray
    snr_db: np.ndarray
    sinad_db: np.ndarray
    sfdr_db: np.ndarray
    enob: np.ndarray

    @property
    def n_devices(self) -> int:
        """Number of spectra analysed."""
        return int(self.enob.size)


@dataclass(frozen=True)
class DynamicSpec:
    """Pass/fail limits for the single-tone dynamic figures of merit.

    Every limit is optional; only the configured ones are checked, so a
    production dynamic suite can screen on ENOB alone or add THD/SFDR
    floors.  All dB quantities follow the sign conventions of
    :class:`SpectrumResult` (THD is negative, more negative is better).
    """

    min_enob: Optional[float] = None
    min_sinad_db: Optional[float] = None
    min_snr_db: Optional[float] = None
    max_thd_db: Optional[float] = None
    min_sfdr_db: Optional[float] = None

    def __post_init__(self) -> None:
        if all(limit is None for limit in (
                self.min_enob, self.min_sinad_db, self.min_snr_db,
                self.max_thd_db, self.min_sfdr_db)):
            raise ValueError("at least one dynamic limit must be set")

    def passes(self, result: "SpectrumResult") -> bool:
        """True when the measured spectrum meets every configured limit."""
        checks = [
            self.min_enob is None or result.enob >= self.min_enob,
            self.min_sinad_db is None or result.sinad_db >= self.min_sinad_db,
            self.min_snr_db is None or result.snr_db >= self.min_snr_db,
            self.max_thd_db is None or result.thd_db <= self.max_thd_db,
            self.min_sfdr_db is None or result.sfdr_db >= self.min_sfdr_db,
        ]
        return all(checks)

    def passes_batch(self, figures: "SpectrumFigures") -> np.ndarray:
        """Per-device pass vector over a batch of measured figures.

        Row ``d`` equals ``passes(...)`` of device ``d``'s scalar result:
        the same comparisons against the same configured limits, evaluated
        across the device axis.
        """
        passed = np.ones(figures.n_devices, dtype=bool)
        if self.min_enob is not None:
            passed &= figures.enob >= self.min_enob
        if self.min_sinad_db is not None:
            passed &= figures.sinad_db >= self.min_sinad_db
        if self.min_snr_db is not None:
            passed &= figures.snr_db >= self.min_snr_db
        if self.max_thd_db is not None:
            passed &= figures.thd_db <= self.max_thd_db
        if self.min_sfdr_db is not None:
            passed &= figures.sfdr_db >= self.min_sfdr_db
        return passed


class DynamicAnalyzer:
    """FFT-based dynamic test of an A/D converter.

    Parameters
    ----------
    n_samples:
        FFT record length (power of two recommended).
    window:
        Window name: ``"rect"`` (use with coherent sampling), ``"hann"``,
        ``"hamming"`` or ``"blackman"``.
    n_harmonics:
        Number of harmonics (2nd .. n+1th) counted as distortion.
    leakage_bins:
        Number of bins on each side of the fundamental and of each harmonic
        that are attributed to that tone rather than to noise (needed for
        non-rectangular windows).
    """

    def __init__(self, n_samples: int = 4096, window: str = "hann",
                 n_harmonics: int = 5, leakage_bins: int = 3) -> None:
        if n_samples < 16:
            raise ValueError("n_samples must be at least 16")
        if window not in _WINDOWS:
            raise ValueError(
                f"unknown window {window!r}; choose from {sorted(_WINDOWS)}")
        if n_harmonics < 1:
            raise ValueError("n_harmonics must be at least 1")
        if leakage_bins < 0:
            raise ValueError("leakage_bins must be non-negative")
        self.n_samples = int(n_samples)
        self.window = window
        self.n_harmonics = int(n_harmonics)
        self.leakage_bins = int(leakage_bins)

    # ------------------------------------------------------------------ #
    # Spectrum computation
    # ------------------------------------------------------------------ #

    def spectrum(self, codes: np.ndarray, sample_rate: float,
                 fundamental: Optional[float] = None) -> SpectrumResult:
        """Analyse a record of output codes.

        Parameters
        ----------
        codes:
            Converter output codes (``n_samples`` of them are used; the
            record must be at least that long).
        sample_rate:
            Sample rate the codes were taken at, in Hz.
        fundamental:
            Expected fundamental frequency; when omitted the strongest
            non-DC bin is used.
        """
        codes = np.asarray(codes, dtype=float)
        if codes.size < self.n_samples:
            raise ValueError(
                f"need at least {self.n_samples} samples, got {codes.size}")
        power = self.windowed_power(codes[None, :self.n_samples])[0]
        freqs = np.fft.rfftfreq(self.n_samples, d=1.0 / sample_rate)
        return self.analyze_power(power, freqs, fundamental, sample_rate)

    def windowed_power(self, codes: np.ndarray) -> np.ndarray:
        """Single-sided power spectra of a ``(devices, n_samples)`` matrix.

        The vectorisable half of :meth:`spectrum`: per-row mean removal,
        windowing and FFT.  Row ``d`` of the result is bit-identical to
        what :meth:`spectrum` computes internally for record ``d``, which
        is what lets :class:`repro.production.analysis_batch.BatchDynamicSuite`
        run the acquisition and transform over the device axis while the
        per-tone bookkeeping stays shared with the scalar path.
        """
        data = np.asarray(codes, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.n_samples:
            raise ValueError(
                f"codes must be a (devices, {self.n_samples}) matrix")
        data = data - data.mean(axis=1, keepdims=True)
        window = _WINDOWS[self.window](self.n_samples)
        spectrum = np.fft.rfft(data * window, axis=1)
        power = np.abs(spectrum) ** 2 / ((window ** 2).sum() * self.n_samples)
        power[:, 1:-1] *= 2.0  # single-sided
        return power

    def analyze_power(self, power: np.ndarray, freqs: np.ndarray,
                      fundamental: Optional[float],
                      sample_rate: float) -> SpectrumResult:
        """Tone bookkeeping over one precomputed power spectrum row.

        A batch-of-1 call into :meth:`analyze_power_batch` — the scalar
        and wafer-scale paths are one implementation, which is what keeps
        the batched dynamic suite bit-exact against this method.
        """
        power = np.asarray(power, dtype=float)
        figures = self.analyze_power_batch(power[None, :], freqs,
                                           fundamental, sample_rate)
        return SpectrumResult(
            frequencies=freqs,
            power=power,
            fundamental_bin=int(figures.fundamental_bin[0]),
            signal_power=float(figures.signal_power[0]),
            noise_power=float(figures.noise_power[0]),
            distortion_power=float(figures.distortion_power[0]),
            thd_db=float(figures.thd_db[0]),
            snr_db=float(figures.snr_db[0]),
            sinad_db=float(figures.sinad_db[0]),
            sfdr_db=float(figures.sfdr_db[0]),
            enob=float(figures.enob[0]))

    def analyze_power_batch(self, power: np.ndarray, freqs: np.ndarray,
                            fundamental: Optional[float],
                            sample_rate: float) -> SpectrumFigures:
        """Tone bookkeeping over a ``(devices, bins)`` power matrix.

        The device-axis form of the per-tone bookkeeping: the fundamental
        is located per device as an index vector (every device snaps to
        its own local maximum), the signal/harmonic windows become boolean
        bin-mask matrices, and every figure of merit is reduced along the
        bin axis — no per-device Python loop.  All sums are fixed-length
        masked reductions, so row ``d`` is bit-identical to a batch-of-1
        call on spectrum ``d`` alone.
        """
        power = np.asarray(power, dtype=float)
        if power.ndim != 2:
            raise ValueError("power must be a (devices, bins) matrix")
        n_devices, n_bins = power.shape
        leak = self.leakage_bins

        if fundamental is None:
            fund = np.argmax(power[:, 1:], axis=1).astype(np.int64) + 1
        else:
            guess = int(round(fundamental * self.n_samples / sample_rate))
            guess = min(max(guess, 1), n_bins - 1)
            # Snap to the local maximum to tolerate slight incoherence.
            lo = max(1, guess - leak)
            hi = min(n_bins, guess + leak + 1)
            fund = lo + np.argmax(power[:, lo:hi], axis=1).astype(np.int64)

        cols = np.arange(n_bins)

        def tone_mask(center: np.ndarray,
                      valid: Optional[np.ndarray] = None) -> np.ndarray:
            """Per-device window mask ``center ± leak`` clipped to [1, nb)."""
            mask = ((cols >= np.maximum(1, center - leak)[:, None])
                    & (cols < np.minimum(n_bins, center + leak + 1)[:, None]))
            if valid is not None:
                mask &= valid[:, None]
            return mask

        signal_mask = tone_mask(fund)
        signal_power = np.where(signal_mask, power, 0.0).sum(axis=1)

        harmonic_mask = np.zeros_like(signal_mask)
        harmonic_power = np.zeros(n_devices)
        nyquist_bin = n_bins - 1
        for order in range(2, 2 + self.n_harmonics):
            folded = (order * fund) % self.n_samples
            h_bin = np.where(folded > self.n_samples // 2,
                             self.n_samples - folded, folded)
            in_range = (h_bin > 0) & (h_bin <= nyquist_bin)
            # A harmonic folding onto the fundamental is not counted twice.
            mask = tone_mask(h_bin, in_range) & ~signal_mask
            harmonic_power = (harmonic_power
                              + np.where(mask, power, 0.0).sum(axis=1))
            harmonic_mask |= mask

        excluded = signal_mask | harmonic_mask
        excluded[:, 0] = True
        noise_power = np.where(excluded, 0.0, power).sum(axis=1)

        # Spurious-free dynamic range also considers non-harmonic spurs.
        spur_candidates = np.where(signal_mask, 0.0, power)
        spur_candidates[:, 0] = 0.0
        worst_any_spur = (spur_candidates.max(axis=1) if n_bins
                          else np.zeros(n_devices))

        thd_db = _db_ratio_rows(harmonic_power, signal_power, -math.inf)
        snr_db = _db_ratio_rows(signal_power, noise_power, math.inf)
        sinad_db = _db_ratio_rows(signal_power,
                                  noise_power + harmonic_power, math.inf)
        sfdr_db = _db_ratio_rows(signal_power, worst_any_spur, math.inf)
        enob = np.where(np.isfinite(sinad_db), (sinad_db - 1.76) / 6.02,
                        np.inf)

        return SpectrumFigures(
            fundamental_bin=fund,
            signal_power=signal_power,
            noise_power=noise_power,
            distortion_power=harmonic_power,
            thd_db=thd_db,
            snr_db=snr_db,
            sinad_db=sinad_db,
            sfdr_db=sfdr_db,
            enob=enob)

    # ------------------------------------------------------------------ #
    # End-to-end measurement
    # ------------------------------------------------------------------ #

    def measure(self, adc: ADC, target_frequency: Optional[float] = None,
                amplitude_fraction: float = 0.49,
                transition_noise_lsb: float = 0.0,
                seed: Optional[int] = None,
                rng: RngLike = None) -> SpectrumResult:
        """Drive ``adc`` with a coherent sine and analyse the output.

        Parameters
        ----------
        adc:
            Converter under test.
        target_frequency:
            Requested sine frequency; defaults to roughly 1/50 of the sample
            rate and is snapped to the nearest coherent frequency.
        amplitude_fraction:
            Sine amplitude as a fraction of full scale.
        transition_noise_lsb:
            Converter input-referred noise during the acquisition.
        seed:
            Seed for the acquisition noise.
        rng:
            Seed or generator for the acquisition noise; takes precedence
            over ``seed``.  Passing ``DeviceNoise(seed).generator(d)``
            (:mod:`repro.core.noise`) reproduces row ``d`` of a batched
            run under ``seed``.
        """
        if target_frequency is None:
            target_frequency = adc.sample_rate / 50.0
        stimulus = SineStimulus.for_adc(adc, target_frequency, self.n_samples,
                                        amplitude_fraction=amplitude_fraction)
        generator = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(
                         rng if rng is not None else seed))
        record = adc.sample(stimulus, n_samples=self.n_samples, rng=generator,
                            transition_noise_lsb=transition_noise_lsb)
        return self.spectrum(record.codes, adc.sample_rate,
                             fundamental=stimulus.frequency)
