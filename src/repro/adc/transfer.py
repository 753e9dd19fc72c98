"""Static transfer-function representation for A/D converters.

The statistical theory in the paper is expressed entirely in terms of the
*transition voltages* ``T[k]`` of the converter (the input voltage at which the
output code changes from ``k-1`` to ``k``) and the *code widths*
``dV[k] = T[k+1] - T[k]``.  This module provides an explicit, immutable-ish
representation of a static transfer curve together with the usual figures of
merit derived from it (offset, gain error, DNL, INL, missing codes,
monotonicity).

Conventions
-----------

* An ``n``-bit converter produces codes ``0 .. 2**n - 1``.
* There are ``2**n - 1`` transition levels ``T[1] .. T[2**n - 1]``; ``T[k]`` is
  the input voltage at which the output changes from code ``k-1`` to code
  ``k``.  Internally they are stored in a NumPy array of length ``2**n - 1``
  where index ``i`` holds ``T[i+1]``.
* There are ``2**n - 2`` *inner* code widths, one per code ``1 .. 2**n - 2``.
  The first and last codes have no defined width (they extend to the rails),
  exactly as in the conventional histogram test where the end bins are
  discarded.
* DNL and INL follow the "end-point" definition used by the paper's histogram
  reference test: the ideal code width (1 LSB) is the average measured inner
  code width, so offset and gain errors do not leak into the linearity
  numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "TransferFunction",
    "ideal_transitions",
    "code_widths_from_transitions",
    "transitions_from_code_widths",
    "batch_transitions_from_code_widths",
    "batch_dnl_from_transitions",
    "batch_max_dnl",
    "batch_max_inl",
    "batch_good_mask",
]


def ideal_transitions(n_bits: int, full_scale: float = 1.0,
                      offset: float = 0.0) -> np.ndarray:
    """Return the ideal transition voltages of an ``n_bits`` converter.

    The ideal converter divides the range ``[offset, offset + full_scale]``
    into ``2**n_bits`` equal code bins.  The transition into code ``k`` sits at
    ``offset + k * LSB`` with ``LSB = full_scale / 2**n_bits``.

    Parameters
    ----------
    n_bits:
        Resolution of the converter in bits.  Must be at least 1.
    full_scale:
        Full-scale input range in volts.
    offset:
        Voltage of the bottom of the conversion range.

    Returns
    -------
    numpy.ndarray
        Array of length ``2**n_bits - 1`` holding ``T[1] .. T[2**n_bits - 1]``.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    if full_scale <= 0:
        raise ValueError(f"full_scale must be positive, got {full_scale}")
    n_codes = 1 << n_bits
    lsb = full_scale / n_codes
    return offset + lsb * np.arange(1, n_codes)


def code_widths_from_transitions(transitions: np.ndarray) -> np.ndarray:
    """Return the inner code widths given the transition voltages.

    ``widths[i]`` is the width of code ``i + 1``, i.e. ``T[i+2] - T[i+1]``.
    The result has length ``len(transitions) - 1``.
    """
    transitions = np.asarray(transitions, dtype=float)
    if transitions.ndim != 1 or transitions.size < 2:
        raise ValueError("need at least two transition levels")
    return np.diff(transitions)


def transitions_from_code_widths(code_widths: np.ndarray,
                                 first_transition: float = 0.0) -> np.ndarray:
    """Reconstruct transition voltages from inner code widths.

    The inverse of :func:`code_widths_from_transitions` up to the location of
    the first transition, which is supplied by ``first_transition``.
    """
    code_widths = np.asarray(code_widths, dtype=float)
    if code_widths.ndim != 1:
        raise ValueError("code_widths must be one-dimensional")
    transitions = np.empty(code_widths.size + 1, dtype=float)
    transitions[0] = first_transition
    np.cumsum(code_widths, out=transitions[1:])
    transitions[1:] += first_transition
    return transitions


def batch_transitions_from_code_widths(code_widths: np.ndarray,
                                       first_transition: float = 0.0
                                       ) -> np.ndarray:
    """Row-wise :func:`transitions_from_code_widths` for a device batch.

    Parameters
    ----------
    code_widths:
        ``(devices, inner codes)`` matrix of code widths in volts.
    first_transition:
        Location of every device's first transition (the batch models share
        one nominal placement, as :meth:`TransferFunction.from_code_widths`
        does when ``first_transition`` is omitted).

    Returns
    -------
    numpy.ndarray
        ``(devices, inner codes + 1)`` matrix of transition voltages.  Each
        row is bit-identical to what the scalar constructor produces for
        the same width vector, so batch and per-device paths agree exactly.
    """
    code_widths = np.asarray(code_widths, dtype=float)
    if code_widths.ndim != 2:
        raise ValueError("code_widths must be a (devices, codes) matrix")
    n_devices, n_widths = code_widths.shape
    transitions = np.empty((n_devices, n_widths + 1), dtype=float)
    transitions[:, 0] = first_transition
    np.cumsum(code_widths, axis=1, out=transitions[:, 1:])
    transitions[:, 1:] += first_transition
    return transitions


def batch_dnl_from_transitions(transitions: np.ndarray) -> np.ndarray:
    """End-point DNL matrix for a ``(devices, transitions)`` batch, in LSB.

    Row ``d`` equals ``TransferFunction.dnl()`` of device ``d``: the ideal
    width is each device's own average inner code width, so offset and gain
    errors do not leak into the linearity numbers.
    """
    transitions = np.asarray(transitions, dtype=float)
    if transitions.ndim != 2 or transitions.shape[1] < 2:
        raise ValueError("need a (devices, >=2 transitions) matrix")
    dnl = np.diff(transitions, axis=1)
    dnl /= dnl.mean(axis=1, keepdims=True)
    dnl -= 1.0
    return dnl


#: Matrix elements per block of the truth-scoring reductions (512 KiB of
#: float64, about 1,024 rows of a 6-bit converter).
SCORING_BLOCK = 1 << 16


def _blockwise_max(transitions: np.ndarray, cumulative: bool) -> np.ndarray:
    """Largest |DNL| (or |INL|) per row, reduced a block of rows at a time.

    Every row goes through :func:`batch_dnl_from_transitions` and its own
    reduction exactly as in one whole-matrix call, so the block size
    never changes a result; it only keeps the temporaries in cache.  A
    65,536-die wafer reduced in one call streams each of its full-size
    temporaries (33 MB) through main memory instead.
    """
    transitions = np.asarray(transitions, dtype=float)
    if transitions.ndim != 2 or transitions.shape[1] < 2:
        raise ValueError("need a (devices, >=2 transitions) matrix")
    rows = max(1, SCORING_BLOCK // transitions.shape[1])
    out = np.empty(transitions.shape[0])
    for start in range(0, transitions.shape[0], rows):
        dnl = batch_dnl_from_transitions(transitions[start:start + rows])
        if cumulative:
            np.cumsum(dnl, axis=1, out=dnl)
        out[start:start + rows] = np.abs(dnl, out=dnl).max(axis=1)
    return out


def batch_max_dnl(transitions: np.ndarray) -> np.ndarray:
    """Per-device largest |DNL| in LSB (vector over the batch).

    Equal to ``np.abs(batch_dnl_from_transitions(transitions)).max(axis=1)``
    bit for bit; rows are reduced in cache-sized blocks
    (:data:`SCORING_BLOCK` elements) rather than as one matrix.
    """
    return _blockwise_max(transitions, cumulative=False)


def batch_max_inl(transitions: np.ndarray) -> np.ndarray:
    """Per-device largest |INL| in LSB (cumulative end-point DNL).

    Equal to ``np.abs(np.cumsum(dnl, axis=1)).max(axis=1)`` with ``dnl =
    batch_dnl_from_transitions(transitions)``, bit for bit; rows are
    reduced in cache-sized blocks (:data:`SCORING_BLOCK` elements) rather
    than as one matrix.
    """
    return _blockwise_max(transitions, cumulative=True)


def batch_good_mask(transitions: np.ndarray, dnl_spec_lsb: float,
                    inl_spec_lsb: Optional[float] = None) -> np.ndarray:
    """Per-device truth: end-point |DNL| (and |INL|) within the spec.

    The matrix form of :func:`repro.core.engine.true_goodness`, row for
    row the same verdict; every population, wafer and batch engine scores
    truth through it.
    """
    good = batch_max_dnl(transitions) <= dnl_spec_lsb
    if inl_spec_lsb is not None:
        good &= batch_max_inl(transitions) <= inl_spec_lsb
    return good


@dataclass
class TransferFunction:
    """Static transfer curve of an A/D converter.

    Parameters
    ----------
    n_bits:
        Resolution of the converter.
    transitions:
        The ``2**n_bits - 1`` transition voltages, monotonically increasing
        for a healthy converter (non-monotonic curves are allowed so that
        faulty devices can be represented).
    full_scale:
        Nominal full-scale range in volts; used to define the ideal LSB for
        absolute (non-end-point) error figures.
    offset_voltage:
        Nominal bottom-of-range voltage.
    """

    n_bits: int
    transitions: np.ndarray
    full_scale: float = 1.0
    offset_voltage: float = 0.0
    _code_widths: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.transitions = np.asarray(self.transitions, dtype=float)
        expected = (1 << self.n_bits) - 1
        if self.transitions.size != expected:
            raise ValueError(
                f"expected {expected} transition levels for a "
                f"{self.n_bits}-bit converter, got {self.transitions.size}")
        if self.full_scale <= 0:
            raise ValueError("full_scale must be positive")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def ideal(cls, n_bits: int, full_scale: float = 1.0,
              offset: float = 0.0) -> "TransferFunction":
        """Return the ideal (perfectly linear) transfer function."""
        return cls(n_bits=n_bits,
                   transitions=ideal_transitions(n_bits, full_scale, offset),
                   full_scale=full_scale,
                   offset_voltage=offset)

    @classmethod
    def from_code_widths(cls, n_bits: int, code_widths: Sequence[float],
                         full_scale: float = 1.0,
                         first_transition: Optional[float] = None,
                         offset: float = 0.0) -> "TransferFunction":
        """Build a transfer function from the inner code widths.

        ``code_widths`` must contain ``2**n_bits - 2`` entries (one per inner
        code).  When ``first_transition`` is omitted the first transition is
        placed at its ideal position (``offset + 1 LSB``).
        """
        widths = np.asarray(code_widths, dtype=float)
        expected = (1 << n_bits) - 2
        if widths.size != expected:
            raise ValueError(
                f"expected {expected} code widths for a {n_bits}-bit "
                f"converter, got {widths.size}")
        lsb = full_scale / (1 << n_bits)
        if first_transition is None:
            first_transition = offset + lsb
        transitions = transitions_from_code_widths(widths, first_transition)
        return cls(n_bits=n_bits, transitions=transitions,
                   full_scale=full_scale, offset_voltage=offset)

    @classmethod
    def from_dnl(cls, n_bits: int, dnl_lsb: Sequence[float],
                 full_scale: float = 1.0,
                 offset: float = 0.0) -> "TransferFunction":
        """Build a transfer function from per-code DNL values (in LSB).

        ``dnl_lsb[i]`` is the DNL of inner code ``i + 1``; the code width is
        ``(1 + dnl_lsb[i]) * LSB``.
        """
        dnl = np.asarray(dnl_lsb, dtype=float)
        lsb = full_scale / (1 << n_bits)
        widths = (1.0 + dnl) * lsb
        return cls.from_code_widths(n_bits, widths, full_scale=full_scale,
                                    offset=offset)

    # ------------------------------------------------------------------ #
    # Basic geometry
    # ------------------------------------------------------------------ #

    @property
    def n_codes(self) -> int:
        """Total number of output codes (``2**n_bits``)."""
        return 1 << self.n_bits

    @property
    def lsb(self) -> float:
        """Ideal LSB size in volts (``full_scale / 2**n_bits``)."""
        return self.full_scale / self.n_codes

    @property
    def code_widths(self) -> np.ndarray:
        """Inner code widths in volts (length ``2**n_bits - 2``)."""
        if self._code_widths is None:
            self._code_widths = code_widths_from_transitions(self.transitions)
        return self._code_widths

    @property
    def code_widths_lsb(self) -> np.ndarray:
        """Inner code widths expressed in ideal LSB."""
        return self.code_widths / self.lsb

    def transition(self, code: int) -> float:
        """Return the transition voltage into ``code`` (1-based code index)."""
        if not 1 <= code <= self.n_codes - 1:
            raise ValueError(
                f"transition index must be in [1, {self.n_codes - 1}],"
                f" got {code}")
        return float(self.transitions[code - 1])

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #

    def convert(self, voltages: np.ndarray) -> np.ndarray:
        """Convert input voltages to output codes.

        Uses the stored transition levels: the output code is the number of
        transition levels at or below the input voltage.  Works for scalar or
        array input and is vectorised with :func:`numpy.searchsorted`.  For a
        non-monotonic transfer curve (a faulty device) the behaviour follows a
        thermometer-style count of exceeded transitions, matching how a flash
        converter with a bubble in its thermometer code behaves after a simple
        ones-counting encoder.
        """
        voltages = np.asarray(voltages, dtype=float)
        if np.all(np.diff(self.transitions) >= 0):
            codes = np.searchsorted(self.transitions, voltages, side="right")
        else:
            # Faulty, non-monotonic device: count transitions exceeded.
            codes = (voltages[..., None] >= self.transitions).sum(axis=-1)
        return codes.astype(np.int64)

    def __call__(self, voltages: np.ndarray) -> np.ndarray:
        return self.convert(voltages)

    # ------------------------------------------------------------------ #
    # Figures of merit
    # ------------------------------------------------------------------ #

    def offset_error_lsb(self) -> float:
        """Offset error in LSB: deviation of the first transition from ideal."""
        ideal_first = self.offset_voltage + self.lsb
        return float((self.transitions[0] - ideal_first) / self.lsb)

    def gain_error_lsb(self) -> float:
        """Gain error in LSB over the full transition span.

        Measured as the deviation of the last-minus-first transition span from
        its ideal value of ``(2**n - 2) * LSB``, expressed in LSB.
        """
        span = self.transitions[-1] - self.transitions[0]
        ideal_span = (self.n_codes - 2) * self.lsb
        return float((span - ideal_span) / self.lsb)

    def dnl(self, endpoint: bool = True) -> np.ndarray:
        """Differential non-linearity per inner code, in LSB.

        Parameters
        ----------
        endpoint:
            When true (default, and what the paper's histogram reference test
            does) the ideal code width is taken as the *average* measured
            inner code width, removing gain error from the DNL figure.  When
            false the nominal LSB (``full_scale / 2**n``) is used instead.
        """
        widths = self.code_widths
        ref = widths.mean() if endpoint else self.lsb
        return widths / ref - 1.0

    def inl(self, endpoint: bool = True) -> np.ndarray:
        """Integral non-linearity per transition, in LSB.

        Computed, as in the paper's LSB processing block, by accumulating the
        DNL values from the first inner code.  The result has one entry per
        inner code; ``inl()[i]`` is the INL at the transition *after* code
        ``i + 1``.
        """
        return np.cumsum(self.dnl(endpoint=endpoint))

    def max_dnl(self, endpoint: bool = True) -> float:
        """Largest absolute DNL in LSB."""
        return float(np.max(np.abs(self.dnl(endpoint=endpoint))))

    def max_inl(self, endpoint: bool = True) -> float:
        """Largest absolute INL in LSB."""
        return float(np.max(np.abs(self.inl(endpoint=endpoint))))

    def has_missing_codes(self, threshold_lsb: float = 0.05) -> bool:
        """True if any inner code is narrower than ``threshold_lsb`` LSB."""
        return bool(np.any(self.code_widths_lsb < threshold_lsb))

    def missing_codes(self, threshold_lsb: float = 0.05) -> np.ndarray:
        """Return the inner code numbers narrower than ``threshold_lsb`` LSB."""
        narrow = np.nonzero(self.code_widths_lsb < threshold_lsb)[0]
        return narrow + 1

    def is_monotonic(self) -> bool:
        """True when every transition level is at or above its predecessor."""
        return bool(np.all(np.diff(self.transitions) >= 0.0))

    def meets_spec(self, dnl_spec_lsb: float, inl_spec_lsb: float,
                   endpoint: bool = True) -> bool:
        """True when both |DNL| and |INL| stay within the given limits."""
        return (self.max_dnl(endpoint=endpoint) <= dnl_spec_lsb
                and self.max_inl(endpoint=endpoint) <= inl_spec_lsb)

    # ------------------------------------------------------------------ #
    # Manipulation
    # ------------------------------------------------------------------ #

    def with_transitions(self, transitions: np.ndarray) -> "TransferFunction":
        """Return a copy of this transfer function with new transitions."""
        return TransferFunction(n_bits=self.n_bits,
                                transitions=np.asarray(transitions, float),
                                full_scale=self.full_scale,
                                offset_voltage=self.offset_voltage)

    def shifted(self, offset_volts: float) -> "TransferFunction":
        """Return a copy with every transition shifted by ``offset_volts``."""
        return self.with_transitions(self.transitions + offset_volts)

    def scaled(self, gain: float) -> "TransferFunction":
        """Return a copy with the transfer curve scaled about the range bottom."""
        if gain <= 0:
            raise ValueError("gain must be positive")
        pivot = self.offset_voltage
        return self.with_transitions(pivot + (self.transitions - pivot) * gain)

    def copy(self) -> "TransferFunction":
        """Deep copy of this transfer function."""
        return self.with_transitions(self.transitions.copy())

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferFunction):
            return NotImplemented
        return (self.n_bits == other.n_bits
                and self.full_scale == other.full_scale
                and self.offset_voltage == other.offset_voltage
                and np.array_equal(self.transitions, other.transitions))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"TransferFunction(n_bits={self.n_bits}, "
                f"full_scale={self.full_scale}, "
                f"max_dnl={self.max_dnl():.3f} LSB, "
                f"max_inl={self.max_inl():.3f} LSB)")
