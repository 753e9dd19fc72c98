"""Wafer and lot models: device *matrices* instead of device objects.

A production line does not think in single converters: it screens wafers of
thousands of dies grouped into lots.  At that scale, materialising one
Python converter object per die is the bottleneck, so a :class:`Wafer`
stores the whole batch as parameter matrices — one row of transition
voltages per die — drawn in a single vectorised call to the architecture's
transfer backend (:mod:`repro.adc.backends`).  The default flash backend
carries exactly the statistics the paper derives for the resistor ladder
(sigma 0.16–0.21 LSB, pairwise correlation ``-1/(N-1)``); the SAR and
pipeline backends realise their architectures' characteristic error
signatures (binary-weight mismatch, inter-stage gain errors) the same way.
Any individual die can still be materialised as a converter object when the
scalar engine needs one, with a transfer curve bit-identical to the matrix
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.adc.backends import ARCHITECTURES, TransferBackend, make_backend
from repro.adc.ideal import TableADC
from repro.adc.population import DevicePopulation
from repro.adc.transfer import TransferFunction, batch_good_mask

__all__ = ["WaferSpec", "Wafer", "Lot"]

RngLike = Union[int, np.random.Generator, None]


@dataclass(frozen=True)
class WaferSpec:
    """Process and geometry parameters shared by every die on a wafer.

    Parameters
    ----------
    n_bits:
        Converter resolution.
    sigma_code_width_lsb:
        Population standard deviation of the inner code widths, in LSB
        (the paper's worst case is 0.21 LSB).  Flash architecture only.
    n_devices:
        Dies per wafer.
    rho:
        Pairwise code-width correlation; ``None`` selects the ladder value
        ``-1/(N-1)`` of Equation (10).  Flash architecture only.
    full_scale:
        Full-scale range in volts.
    sample_rate:
        Sample frequency of every die in Hz.
    architecture:
        Converter architecture realised by the wafer's dies: ``"flash"``
        (default), ``"sar"`` or ``"pipeline"``; selects the vectorised
        transfer backend (:mod:`repro.adc.backends`) the draw uses.
    unit_cap_sigma_rel, comparator_offset_sigma_lsb:
        SAR mismatch parameters (unit-capacitor relative sigma, per-die
        comparator offset sigma in LSB).
    gain_error_sigma, threshold_sigma_lsb:
        Pipeline mismatch parameters (relative stage-gain sigma, sub-ADC
        threshold sigma in LSB).
    """

    n_bits: int = 6
    sigma_code_width_lsb: float = 0.21
    n_devices: int = 2500
    rho: Optional[float] = None
    full_scale: float = 1.0
    sample_rate: float = 1e6
    architecture: str = "flash"
    unit_cap_sigma_rel: float = 0.06
    comparator_offset_sigma_lsb: float = 0.0
    gain_error_sigma: float = 0.03
    threshold_sigma_lsb: float = 0.5

    def __post_init__(self) -> None:
        if self.n_bits < 2:
            raise ValueError("n_bits must be >= 2")
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if self.sigma_code_width_lsb < 0:
            raise ValueError("sigma_code_width_lsb must be non-negative")
        if self.full_scale <= 0 or self.sample_rate <= 0:
            raise ValueError("full_scale and sample_rate must be positive")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"expected one of {ARCHITECTURES}")

    def backend(self) -> TransferBackend:
        """The vectorised transfer backend realising this spec's dies."""
        return make_backend(
            self.architecture, self.n_bits, self.full_scale,
            sigma_code_width_lsb=self.sigma_code_width_lsb, rho=self.rho,
            unit_cap_sigma_rel=self.unit_cap_sigma_rel,
            comparator_offset_sigma_lsb=self.comparator_offset_sigma_lsb,
            gain_error_sigma=self.gain_error_sigma,
            threshold_sigma_lsb=self.threshold_sigma_lsb)

    @property
    def n_codes(self) -> int:
        """Number of output codes per die."""
        return 1 << self.n_bits

    @property
    def n_inner_codes(self) -> int:
        """Number of inner code widths per die."""
        return self.n_codes - 2

    @property
    def lsb(self) -> float:
        """Ideal LSB size in volts."""
        return self.full_scale / self.n_codes


class Wafer:
    """One wafer of converters, held as a transition-voltage matrix.

    Parameters
    ----------
    spec:
        The shared process/geometry parameters.
    transitions:
        ``(n_devices, 2**n_bits - 1)`` matrix of transition voltages; row
        ``i`` is die ``i``'s static transfer curve.
    wafer_id:
        Identifier used in screening reports.
    """

    def __init__(self, spec: WaferSpec, transitions: np.ndarray,
                 wafer_id: str = "W0") -> None:
        transitions = np.asarray(transitions, dtype=float)
        expected = (spec.n_devices, spec.n_codes - 1)
        if transitions.shape != expected:
            raise ValueError(
                f"expected a transition matrix of shape {expected}, "
                f"got {transitions.shape}")
        self.spec = spec
        self.transitions = transitions
        self.wafer_id = str(wafer_id)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def draw(cls, spec: WaferSpec, rng: RngLike = None,
             wafer_id: str = "W0") -> "Wafer":
        """Draw a wafer's worth of dies in one vectorised call.

        The transition matrix of all dies comes from a single call into
        the spec's transfer backend (:mod:`repro.adc.backends`), so the
        per-wafer cost is one RNG stream regardless of the die count —
        this is what makes million-device Monte-Carlo lots tractable for
        every supported architecture, not just flash.
        """
        transitions = spec.backend().draw_transitions(spec.n_devices,
                                                      rng=rng)
        return cls(spec, transitions, wafer_id=wafer_id)

    @classmethod
    def from_population(cls, population: DevicePopulation,
                        wafer_id: str = "W0") -> "Wafer":
        """Wrap an existing :class:`DevicePopulation` as a wafer.

        The transition matrix is taken from
        :meth:`~repro.adc.population.DevicePopulation.transition_matrix`,
        so batch decisions on the wafer agree bit-for-bit with scalar runs
        over the population's device objects.
        """
        pop_spec = population.spec
        # The Gaussian population architecture is the statistical model of
        # the flash ladder; the wafer only records the matrix's provenance.
        architecture = (pop_spec.architecture
                        if pop_spec.architecture in ARCHITECTURES
                        else "flash")
        spec = WaferSpec(
            n_bits=pop_spec.n_bits,
            sigma_code_width_lsb=pop_spec.sigma_code_width_lsb,
            n_devices=pop_spec.size,
            full_scale=pop_spec.full_scale,
            sample_rate=pop_spec.sample_rate,
            architecture=architecture,
            unit_cap_sigma_rel=pop_spec.unit_cap_sigma_rel,
            comparator_offset_sigma_lsb=pop_spec.comparator_offset_sigma_lsb,
            gain_error_sigma=pop_spec.gain_error_sigma,
            threshold_sigma_lsb=pop_spec.threshold_sigma_lsb)
        return cls(spec, population.transition_matrix(), wafer_id=wafer_id)

    # ------------------------------------------------------------------ #
    # Device access (scalar interoperability)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.spec.n_devices

    def device(self, index: int) -> TableADC:
        """Materialise die ``index`` as a converter object.

        The returned device wraps this wafer's transition row directly, so
        scalar-engine runs on it see exactly the transfer curve the batch
        engine decides on.
        """
        if not -len(self) <= index < len(self):
            raise IndexError(f"die index {index} out of range")
        index = index % len(self)
        tf = TransferFunction(n_bits=self.spec.n_bits,
                              transitions=self.transitions[index],
                              full_scale=self.spec.full_scale)
        return TableADC(tf, sample_rate=self.spec.sample_rate,
                        name=f"{self.wafer_id} die {index}")

    def devices(self) -> Iterator[TableADC]:
        """Iterate over all dies as converter objects (scalar path)."""
        for i in range(len(self)):
            yield self.device(i)

    # ------------------------------------------------------------------ #
    # Bulk true linearity (the reference the BIST is scored against)
    # ------------------------------------------------------------------ #

    def good_mask(self, dnl_spec_lsb: float,
                  inl_spec_lsb: Optional[float] = None) -> np.ndarray:
        """Boolean mask of dies truly meeting the specification.

        The matrix analogue of :func:`repro.core.engine.true_goodness`:
        the same end-point criterion, evaluated for every die
        (:func:`~repro.adc.transfer.batch_good_mask`).  The reductions
        run over blocks of about 1,024 dies, so a 65,536-die wafer's DNL
        temporaries stay in cache instead of streaming through main
        memory; each die is still reduced on its own.
        """
        return batch_good_mask(self.transitions, dnl_spec_lsb, inl_spec_lsb)

    def yield_fraction(self, dnl_spec_lsb: float,
                       inl_spec_lsb: Optional[float] = None) -> float:
        """Fraction of dies truly meeting the specification."""
        return float(self.good_mask(dnl_spec_lsb, inl_spec_lsb).mean())


class Lot:
    """A production lot: an ordered group of wafers screened together."""

    def __init__(self, wafers: List[Wafer], lot_id: str = "LOT-0") -> None:
        if not wafers:
            raise ValueError("a lot needs at least one wafer")
        spec = wafers[0].spec
        for wafer in wafers[1:]:
            if wafer.spec != spec:
                raise ValueError("all wafers of a lot must share one spec")
        self.wafers = list(wafers)
        self.lot_id = str(lot_id)

    @classmethod
    def draw(cls, spec: WaferSpec, n_wafers: int, seed: Optional[int] = 0,
             lot_id: str = "LOT-0") -> "Lot":
        """Draw a reproducible lot of ``n_wafers`` wafers.

        Wafer ``i`` uses a child seed derived from ``seed`` (the same
        scheme :class:`~repro.adc.population.DevicePopulation` uses for its
        devices), so a lot is fully reproducible from one integer.
        """
        if n_wafers < 1:
            raise ValueError("n_wafers must be >= 1")
        rng = np.random.default_rng(seed)
        wafer_seeds = rng.integers(0, 2 ** 31 - 1, size=n_wafers)
        wafers = [Wafer.draw(spec, rng=int(wafer_seeds[i]),
                             wafer_id=f"{lot_id}/W{i}")
                  for i in range(n_wafers)]
        return cls(wafers, lot_id=lot_id)

    @property
    def spec(self) -> WaferSpec:
        """The spec shared by every wafer of the lot."""
        return self.wafers[0].spec

    @property
    def n_devices(self) -> int:
        """Total dies across all wafers."""
        return sum(len(w) for w in self.wafers)

    def __len__(self) -> int:
        return len(self.wafers)

    def __iter__(self) -> Iterator[Wafer]:
        return iter(self.wafers)
