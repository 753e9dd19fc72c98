"""Pluggable vectorised transfer-function backends for device populations.

The production subsystem holds its devices as *parameter matrices* — one
transition-voltage row per die — instead of per-die Python objects.  PR 1
could only draw such matrices for the flash ladder
(:func:`~repro.adc.population.correlated_code_widths`); this module makes
the draw pluggable, so :class:`~repro.production.lot.Wafer` and
:class:`~repro.adc.population.DevicePopulation` can realise whole wafers of
flash, SAR or pipeline converters in a handful of array operations.

Each backend vectorises the mismatch model of the corresponding scalar
converter class over the device axis:

* :class:`FlashLadderBackend` — the ratiometric resistor-ladder statistics
  of :class:`~repro.adc.flash.FlashADC` (code-width sigma 0.16–0.21 LSB,
  pairwise correlation ``-1/(N-1)`` of Equation (10)), drawn directly as a
  correlated code-width matrix.
* :class:`SarWeightBackend` — the binary-weighted capacitor mismatch of
  :class:`~repro.adc.sar.SarADC` (unit-capacitor sigma scaling as
  ``1/sqrt(weight)``), plus an optional per-die comparator offset.
* :class:`PipelineStageBackend` — the 1.5-bit/stage gain and threshold
  errors of :class:`~repro.adc.pipeline.PipelineADC`.  Each die's
  transitions on the scalar model's sweep grid are found by an exact
  breakpoint search (:func:`~repro.adc.pipeline.search_transitions`): a few
  chain evaluations per stage decision, on one table of dies by branches of
  stage decisions per stage, instead of digitising 64 points per LSB.

A single-device draw reproduces the scalar model's transfer curve for the
same seed (the SAR and pipeline backends consume the generator in the same
order as the scalar constructors), and any row can be wrapped in a
:class:`~repro.adc.ideal.TableADC` for the scalar engines — bit-identical
to the matrix the batch engines decide on.
"""

from __future__ import annotations

import abc
from typing import Union

import numpy as np

from repro.adc.pipeline import search_transitions
from repro.adc.transfer import batch_transitions_from_code_widths

__all__ = [
    "TransferBackend",
    "FlashLadderBackend",
    "SarWeightBackend",
    "PipelineStageBackend",
    "ARCHITECTURES",
    "make_backend",
]

RngLike = Union[int, np.random.Generator, None]

#: Output codes per chunk of the pipeline backend's breakpoint search: 1,024
#: dies at 6 bits, 64 at 10 bits.  At the default mismatch the search's
#: widest table, the final flash's, holds 228 leaf columns at 6 bits and
#: 4,468-4,860 at 10 bits, and one chunk lifts the process's peak RSS by
#: about 16 MiB at 6 bits and 22 MiB at 10 bits.
_PIPELINE_CHUNK_CODES = 1 << 16


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


class TransferBackend(abc.ABC):
    """One converter architecture's vectorised transition-matrix draw."""

    #: Architecture name the backend registers under.
    name: str = ""

    def __init__(self, n_bits: int, full_scale: float = 1.0) -> None:
        if n_bits < 2:
            raise ValueError("n_bits must be >= 2")
        if full_scale <= 0:
            raise ValueError("full_scale must be positive")
        self.n_bits = int(n_bits)
        self.full_scale = float(full_scale)

    @property
    def n_codes(self) -> int:
        """Number of output codes per device."""
        return 1 << self.n_bits

    @property
    def lsb(self) -> float:
        """Ideal LSB size in volts."""
        return self.full_scale / self.n_codes

    @abc.abstractmethod
    def draw_transitions(self, n_devices: int,
                         rng: RngLike = None) -> np.ndarray:
        """Draw a ``(n_devices, 2**n_bits - 1)`` transition-voltage matrix."""


class FlashLadderBackend(TransferBackend):
    """The paper's flash converter: correlated code-width statistics.

    Draws the inner code widths from the uniform-correlation Gaussian model
    the resistor ladder produces and accumulates them into transition
    voltages — exactly the draw :meth:`repro.production.lot.Wafer.draw`
    performed before backends existed, so seeded wafers are unchanged.
    """

    name = "flash"

    def __init__(self, n_bits: int, full_scale: float = 1.0,
                 sigma_code_width_lsb: float = 0.21,
                 rho: Union[float, None] = None) -> None:
        super().__init__(n_bits, full_scale)
        if sigma_code_width_lsb < 0:
            raise ValueError("sigma_code_width_lsb must be non-negative")
        self.sigma_code_width_lsb = float(sigma_code_width_lsb)
        self.rho = rho

    def draw_transitions(self, n_devices: int,
                         rng: RngLike = None) -> np.ndarray:
        # Imported here to avoid a cycle: population.py imports this module.
        from repro.adc.population import correlated_code_widths
        widths_lsb = correlated_code_widths(
            n_devices, self.n_codes - 2, self.sigma_code_width_lsb,
            rho=self.rho, rng=rng)
        return batch_transitions_from_code_widths(
            widths_lsb * self.lsb, first_transition=self.lsb)


class SarWeightBackend(TransferBackend):
    """SAR converters with binary-weighted capacitor mismatch.

    Vectorises :class:`~repro.adc.sar.SarADC`: every die draws independent
    relative errors for its ``n_bits`` weights (sigma scaling as
    ``1/sqrt(weight)``), the decision levels are the bit-selected partial
    sums of the weights, and an optional per-die comparator offset shifts
    the whole curve.  A one-device draw consumes the generator exactly as
    the scalar constructor does, so row 0 of ``draw_transitions(1, seed)``
    equals ``SarADC(..., rng=seed)``'s transfer curve.
    """

    name = "sar"

    def __init__(self, n_bits: int, full_scale: float = 1.0,
                 unit_cap_sigma_rel: float = 0.06,
                 comparator_offset_sigma_lsb: float = 0.0) -> None:
        super().__init__(n_bits, full_scale)
        if unit_cap_sigma_rel < 0:
            raise ValueError("unit_cap_sigma_rel must be non-negative")
        if comparator_offset_sigma_lsb < 0:
            raise ValueError(
                "comparator_offset_sigma_lsb must be non-negative")
        self.unit_cap_sigma_rel = float(unit_cap_sigma_rel)
        self.comparator_offset_sigma_lsb = float(comparator_offset_sigma_lsb)

    def draw_transitions(self, n_devices: int,
                         rng: RngLike = None) -> np.ndarray:
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        generator = _as_rng(rng)
        n = self.n_bits
        # Nominal binary weights, MSB first: 2**(n-1), ..., 2, 1.
        nominal = 2.0 ** np.arange(n - 1, -1, -1)
        rel_err = generator.normal(0.0, 1.0, size=(n_devices, n))
        rel_err *= self.unit_cap_sigma_rel / np.sqrt(nominal)
        weights = nominal * (1.0 + rel_err)

        codes = np.arange(1, self.n_codes)
        shifts = np.arange(n - 1, -1, -1)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(float)
        # dac_levels[d, c] = sum of die d's weights selected by code c.
        dac_levels = weights @ bits.T
        total = weights.sum(axis=1) + 1.0
        transitions = (dac_levels - 0.5) / total[:, None] * self.full_scale
        if self.comparator_offset_sigma_lsb > 0.0:
            offsets = generator.normal(
                0.0, self.comparator_offset_sigma_lsb * self.lsb,
                size=n_devices)
            transitions = transitions + offsets[:, None]
        return transitions


class PipelineStageBackend(TransferBackend):
    """1.5-bit/stage pipelines with inter-stage gain and threshold errors.

    Vectorises :class:`~repro.adc.pipeline.PipelineADC`: per-die stage
    gains and sub-ADC thresholds are drawn in one call (in the scalar
    constructor's order), and
    :func:`~repro.adc.pipeline.search_transitions` locates where each die's
    output code first reaches every value along the scalar model's sweep
    (64 points per nominal LSB) by splitting the sweep at each stage's
    decision boundaries — byte for byte the transitions the scalar model
    reads off its dense sweep, without digitising it.
    """

    name = "pipeline"

    def __init__(self, n_bits: int, full_scale: float = 1.0,
                 gain_error_sigma: float = 0.03,
                 threshold_sigma_lsb: float = 0.5) -> None:
        if n_bits < 3:
            raise ValueError("the pipeline architecture needs n_bits >= 3")
        super().__init__(n_bits, full_scale)
        if gain_error_sigma < 0:
            raise ValueError("gain_error_sigma must be non-negative")
        if threshold_sigma_lsb < 0:
            raise ValueError("threshold_sigma_lsb must be non-negative")
        self.gain_error_sigma = float(gain_error_sigma)
        self.threshold_sigma_lsb = float(threshold_sigma_lsb)
        self.n_stages = self.n_bits - 2

    def draw_transitions(self, n_devices: int,
                         rng: RngLike = None) -> np.ndarray:
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        generator = _as_rng(rng)
        n_stages = self.n_stages
        gains = 2.0 * (1.0 + generator.normal(
            0.0, self.gain_error_sigma, size=(n_devices, n_stages)))
        thr_sigma = self.threshold_sigma_lsb * self.lsb / self.full_scale
        low = -0.25 + generator.normal(0.0, thr_sigma,
                                       size=(n_devices, n_stages))
        high = +0.25 + generator.normal(0.0, thr_sigma,
                                        size=(n_devices, n_stages))

        transitions = np.empty((n_devices, self.n_codes - 1), dtype=float)
        chunk = max(1, _PIPELINE_CHUNK_CODES // self.n_codes)
        for lo in range(0, n_devices, chunk):
            hi = min(lo + chunk, n_devices)
            transitions[lo:hi] = search_transitions(
                gains[lo:hi], low[lo:hi], high[lo:hi], self.full_scale)
        return transitions


ARCHITECTURES = ("flash", "sar", "pipeline")


def make_backend(architecture: str, n_bits: int, full_scale: float = 1.0,
                 *,
                 sigma_code_width_lsb: float = 0.21,
                 rho: Union[float, None] = None,
                 unit_cap_sigma_rel: float = 0.06,
                 comparator_offset_sigma_lsb: float = 0.0,
                 gain_error_sigma: float = 0.03,
                 threshold_sigma_lsb: float = 0.5) -> TransferBackend:
    """Build the transfer backend for an architecture name.

    Only the parameters relevant to the selected architecture are used;
    callers (``WaferSpec``/``PopulationSpec``) pass their full parameter
    set and let the backend pick its own.
    """
    if architecture == "flash":
        return FlashLadderBackend(
            n_bits, full_scale,
            sigma_code_width_lsb=sigma_code_width_lsb, rho=rho)
    if architecture == "sar":
        return SarWeightBackend(
            n_bits, full_scale,
            unit_cap_sigma_rel=unit_cap_sigma_rel,
            comparator_offset_sigma_lsb=comparator_offset_sigma_lsb)
    if architecture == "pipeline":
        return PipelineStageBackend(
            n_bits, full_scale,
            gain_error_sigma=gain_error_sigma,
            threshold_sigma_lsb=threshold_sigma_lsb)
    raise ValueError(
        f"unknown architecture {architecture!r}; "
        f"expected one of {ARCHITECTURES}")
