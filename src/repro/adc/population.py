"""Monte-Carlo populations of converters with process variation.

The paper's "measurement" column is produced from a physical batch of 364
6-bit flash converters; this module is the substitute substrate: it draws
device *populations* whose code-width statistics match the numbers the paper
reports from circuit simulation —

* code-width standard deviation between 0.16 and 0.21 LSB (the experiments
  use the 0.21 LSB worst case),
* inter-code-width correlation ``rho = -1/(N-1)`` (Equation (10)), which
  arises naturally from the ratiometric resistor ladder.

Every architecture now realises its population through the corresponding
vectorised transfer backend (:mod:`repro.adc.backends`): the whole
population's transition matrix is drawn in one call seeded by the
population seed, and individual devices are materialised as
:class:`~repro.adc.ideal.TableADC` objects wrapping their matrix row —
bit-identical to what the batch engines decide on, without building one
behavioural converter model per device.  ``"flash"`` and ``"gaussian"``
share the :class:`~repro.adc.backends.FlashLadderBackend` statistics (the
correlated-normal model of the ladder, Equation (10)); ``"sar"`` and
``"pipeline"`` use their architecture backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.adc.base import ADC
from repro.adc.ideal import TableADC
from repro.adc.transfer import (
    TransferFunction,
    batch_dnl_from_transitions,
    batch_good_mask,
    batch_max_dnl,
    batch_max_inl,
)

__all__ = ["PopulationSpec", "DevicePopulation", "correlated_code_widths"]

RngLike = Union[int, np.random.Generator, None]


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def correlated_code_widths(n_devices: int, n_widths: int,
                           sigma_lsb: float, rho: Optional[float] = None,
                           rng: RngLike = None) -> np.ndarray:
    """Draw code-width matrices (in LSB) with a uniform pairwise correlation.

    Parameters
    ----------
    n_devices:
        Number of devices (rows of the result).
    n_widths:
        Number of inner code widths per device (columns).
    sigma_lsb:
        Standard deviation of each width, in LSB.
    rho:
        Pairwise correlation between any two widths of the same device.
        ``None`` selects the paper's ladder value ``-1/(N-1)`` where ``N`` is
        the number of codes (``n_widths + 2``).  Must satisfy
        ``-1/(n_widths-1) <= rho <= 1`` for the covariance to be positive
        semi-definite.
    rng:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        Shape ``(n_devices, n_widths)``; entry ``[d, i]`` is the width of
        inner code ``i + 1`` of device ``d`` in LSB (mean 1.0).

    Notes
    -----
    A uniform-correlation Gaussian vector is generated with the standard
    one-factor construction ``x_i = sqrt(rho') * z0 + sqrt(1 - rho') * z_i``
    for non-negative correlation, and with the mean-subtraction construction
    (which yields exactly ``rho = -1/(M-1)`` over ``M`` variables) for the
    negative-correlation case the ladder produces.
    """
    if n_devices < 1 or n_widths < 2:
        raise ValueError("need at least 1 device and 2 code widths")
    if sigma_lsb < 0:
        raise ValueError("sigma_lsb must be non-negative")
    generator = _as_rng(rng)

    n_codes = n_widths + 2
    if rho is None:
        rho = -1.0 / (n_codes - 1)

    if rho < -1.0 / (n_widths - 1) - 1e-12 or rho > 1.0:
        raise ValueError(
            f"rho={rho} is not achievable for {n_widths} jointly distributed"
            f" widths (must be within [-1/{n_widths - 1}, 1])")

    if abs(rho) < 1e-15:
        deviations = generator.normal(0.0, sigma_lsb,
                                      size=(n_devices, n_widths))
    elif rho > 0:
        common = generator.normal(0.0, 1.0, size=(n_devices, 1))
        private = generator.normal(0.0, 1.0, size=(n_devices, n_widths))
        deviations = sigma_lsb * (np.sqrt(rho) * common
                                  + np.sqrt(1.0 - rho) * private)
    else:
        # Negative uniform correlation: draw iid variables and subtract a
        # scaled per-device mean, x_i = z_i - c * mean(z).  The correlation of
        # the result is (c^2 - 2c) / (n - 2c + c^2); solving for c gives
        # c = 1 - sqrt(1 + rho * n / (1 - rho)), which equals 1 (full mean
        # subtraction) at the ladder limit rho = -1/(n-1).
        n = n_widths
        discriminant = max(0.0, 1.0 + rho * n / (1.0 - rho))
        c = 1.0 - np.sqrt(discriminant)
        raw = generator.normal(0.0, 1.0, size=(n_devices, n_widths))
        mean = raw.mean(axis=1, keepdims=True)
        centred = raw - c * mean
        var = 1.0 - 2.0 * c / n + c * c / n
        deviations = sigma_lsb * centred / np.sqrt(var)
    return 1.0 + deviations


@dataclass
class PopulationSpec:
    """Specification of a converter population.

    Attributes
    ----------
    n_bits:
        Converter resolution.
    sigma_code_width_lsb:
        Population standard deviation of the inner code widths, in LSB.  The
        paper's worst case is 0.21 LSB.
    size:
        Number of devices; the paper measured a batch of 364.
    architecture:
        ``"flash"`` and ``"gaussian"`` draw code widths from the correlated
        normal model of the resistor ladder the paper's equations assume;
        ``"sar"`` and ``"pipeline"`` use their architecture models.  All
        four draw through the vectorised transfer backends of
        :mod:`repro.adc.backends`.
    unit_cap_sigma_rel, comparator_offset_sigma_lsb:
        SAR-architecture mismatch parameters.
    gain_error_sigma, threshold_sigma_lsb:
        Pipeline-architecture mismatch parameters.
    full_scale:
        Full-scale range in volts.
    sample_rate:
        Sample frequency of every device in Hz.
    seed:
        Population seed: the whole transition matrix is drawn from it in
        one vectorised backend call, so a population is fully
        reproducible.
    """

    n_bits: int = 6
    sigma_code_width_lsb: float = 0.21
    size: int = 364
    architecture: str = "flash"
    full_scale: float = 1.0
    sample_rate: float = 1e6
    seed: Optional[int] = 0
    unit_cap_sigma_rel: float = 0.06
    comparator_offset_sigma_lsb: float = 0.0
    gain_error_sigma: float = 0.03
    threshold_sigma_lsb: float = 0.5

    def __post_init__(self) -> None:
        if self.n_bits < 2:
            raise ValueError("n_bits must be >= 2")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.sigma_code_width_lsb < 0:
            raise ValueError("sigma_code_width_lsb must be non-negative")
        if self.architecture not in ("flash", "gaussian", "sar", "pipeline"):
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"expected 'flash', 'gaussian', 'sar' or 'pipeline'")

    def backend(self):
        """The vectorised transfer backend realising this population.

        ``"flash"`` and ``"gaussian"`` both map to the
        :class:`~repro.adc.backends.FlashLadderBackend` — the correlated
        code-width statistics of the ladder, which is exactly the model
        the Gaussian architecture draws from.
        """
        from repro.adc.backends import make_backend
        architecture = (self.architecture
                        if self.architecture in ("sar", "pipeline")
                        else "flash")
        return make_backend(
            architecture, self.n_bits, self.full_scale,
            sigma_code_width_lsb=self.sigma_code_width_lsb,
            unit_cap_sigma_rel=self.unit_cap_sigma_rel,
            comparator_offset_sigma_lsb=self.comparator_offset_sigma_lsb,
            gain_error_sigma=self.gain_error_sigma,
            threshold_sigma_lsb=self.threshold_sigma_lsb)

    @property
    def n_codes(self) -> int:
        """Number of output codes per device."""
        return 1 << self.n_bits

    @property
    def n_inner_codes(self) -> int:
        """Number of inner code widths per device."""
        return self.n_codes - 2


class DevicePopulation:
    """A reproducible Monte-Carlo batch of converters.

    The population is generated lazily: device objects are only materialised
    when iterated or indexed, while bulk statistics (code-width matrix,
    yield) are computed vectorised without building per-device Python
    objects.
    """

    def __init__(self, spec: PopulationSpec) -> None:
        self.spec = spec
        self._width_matrix_lsb: Optional[np.ndarray] = None
        self._transition_matrix: Optional[np.ndarray] = None
        self._devices: Optional[List[ADC]] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def paper_batch(cls, sigma_code_width_lsb: float = 0.21,
                    size: int = 364, seed: int = 1997,
                    architecture: str = "flash") -> "DevicePopulation":
        """The batch used throughout the paper's section 4.

        6-bit flash devices, worst-case code-width sigma of 0.21 LSB, 364
        devices (the measured batch size).
        """
        return cls(PopulationSpec(n_bits=6,
                                  sigma_code_width_lsb=sigma_code_width_lsb,
                                  size=size, seed=seed,
                                  architecture=architecture))

    # ------------------------------------------------------------------ #
    # Device access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.spec.size

    def __iter__(self) -> Iterator[ADC]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index: int) -> ADC:
        if self._devices is None:
            self._devices = [None] * len(self)  # type: ignore[list-item]
        if not -len(self) <= index < len(self):
            raise IndexError(f"device index {index} out of range")
        index = index % len(self)
        if self._devices[index] is None:
            self._devices[index] = self._build_device(index)
        return self._devices[index]

    def _build_device(self, index: int) -> ADC:
        # The device wraps its row of the backend-drawn transition matrix,
        # so scalar runs on it see exactly the curve the batch engines
        # decide on.
        spec = self.spec
        tf = TransferFunction(n_bits=spec.n_bits,
                              transitions=self.transition_matrix()[index],
                              full_scale=spec.full_scale)
        return TableADC(tf, sample_rate=spec.sample_rate,
                        name=f"{spec.architecture} device {index}")

    # ------------------------------------------------------------------ #
    # Bulk statistics
    # ------------------------------------------------------------------ #

    def code_width_matrix_lsb(self) -> np.ndarray:
        """Return the (devices x inner codes) matrix of code widths in LSB."""
        if self._width_matrix_lsb is None:
            spec = self.spec
            lsb = spec.full_scale / spec.n_codes
            self._width_matrix_lsb = (
                np.diff(self.transition_matrix(), axis=1) / lsb)
        return self._width_matrix_lsb

    def transition_matrix(self) -> np.ndarray:
        """Return the (devices x transitions) matrix of transition voltages.

        The row for device ``i`` is bit-identical to
        ``self[i].transfer_function().transitions``, so matrix-level
        consumers (the batch BIST engine in :mod:`repro.production`) decide
        on exactly the transfer curves the per-device objects expose.  The
        whole matrix comes from one vectorised backend draw seeded by the
        population seed.
        """
        if self._transition_matrix is None:
            spec = self.spec
            self._transition_matrix = spec.backend().draw_transitions(
                spec.size, rng=spec.seed)
        return self._transition_matrix

    def empirical_sigma_lsb(self) -> float:
        """Population standard deviation of all code widths, in LSB."""
        return float(self.code_width_matrix_lsb().std(ddof=1))

    def empirical_correlation(self) -> float:
        """Average pairwise correlation between code widths within a device.

        Estimated as the mean off-diagonal entry of the empirical correlation
        matrix of the width columns; for the ladder model this converges to
        ``-1/(N-1)``.
        """
        matrix = self.code_width_matrix_lsb()
        corr = np.corrcoef(matrix, rowvar=False)
        n = corr.shape[0]
        off_diag_sum = corr.sum() - np.trace(corr)
        return float(off_diag_sum / (n * (n - 1)))

    def dnl_matrix(self) -> np.ndarray:
        """End-point DNL of every device (devices x inner codes), in LSB.

        Row ``i`` equals ``self[i].transfer_function().dnl()``, the
        formula every truth score uses.
        """
        return batch_dnl_from_transitions(self.transition_matrix())

    def max_dnl_per_device(self) -> np.ndarray:
        """Largest |DNL| of each device, in LSB."""
        return batch_max_dnl(self.transition_matrix())

    def max_inl_per_device(self) -> np.ndarray:
        """Largest |INL| of each device, in LSB (cumulative end-point DNL)."""
        return batch_max_inl(self.transition_matrix())

    def good_mask(self, dnl_spec_lsb: float,
                  inl_spec_lsb: Optional[float] = None) -> np.ndarray:
        """Boolean mask of devices meeting the DNL (and optional INL) spec
        (:func:`~repro.adc.transfer.batch_good_mask`)."""
        return batch_good_mask(self.transition_matrix(), dnl_spec_lsb,
                               inl_spec_lsb)

    def yield_fraction(self, dnl_spec_lsb: float,
                       inl_spec_lsb: Optional[float] = None) -> float:
        """Fraction of devices meeting the spec (the paper's "30 % good")."""
        return float(self.good_mask(dnl_spec_lsb, inl_spec_lsb).mean())

    def devices(self, indices: Optional[Sequence[int]] = None) -> List[ADC]:
        """Materialise and return devices (all, or the given indices)."""
        if indices is None:
            indices = range(len(self))
        return [self[i] for i in indices]
