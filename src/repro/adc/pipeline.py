"""Behavioural model of a pipelined A/D converter.

A third converter architecture, included so that the library's examples can
show the BIST methodology operating on converters whose error mechanisms are
inter-stage gain errors rather than per-code mismatch.  The model is a
classic 1.5-bit/stage pipeline with digital error correction:

* each stage resolves 1.5 bits (three decision regions) and passes a residue
  amplified by a nominal gain of 2 to the next stage,
* the stage gain and the two sub-ADC comparator thresholds carry errors,
* a final flash stage resolves the remaining bits.

Gain errors produce the pipeline's characteristic DNL signature: repeated
discontinuities at the stage decision boundaries.

The signal chain is written once, over a device axis, and read two ways:
:func:`dense_transitions` digitises a fine input sweep (the reference, and
the scalar model's extraction), and :func:`search_transitions` finds the
same transitions by searching for each die's decision breakpoints on that
sweep (the production backend's draw).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.adc.base import ADC
from repro.adc.transfer import TransferFunction

__all__ = ["PipelineADC", "dense_transitions", "search_transitions"]

RngLike = Union[int, np.random.Generator, None]

#: Sweep points per nominal LSB of the transfer-curve extraction.
_OVERSAMPLE = 64


class PipelineADC(ADC):
    """A 1.5-bit/stage pipelined converter with gain and threshold errors.

    Parameters
    ----------
    n_bits:
        Overall resolution.  ``n_bits - 2`` pipeline stages of 1.5 bits each
        are followed by a final 2-bit flash; ``n_bits`` must be at least 3.
    gain_error_sigma:
        Relative standard deviation of each stage's residue gain (nominal 2).
    threshold_sigma_lsb:
        Standard deviation of each stage comparator threshold, expressed in
        LSB at the converter input.
    full_scale:
        Full-scale range in volts.
    sample_rate:
        Sample frequency in Hz.
    rng:
        Seed or generator selecting this device's error realisation.
    """

    def __init__(self, n_bits: int,
                 gain_error_sigma: float = 0.0,
                 threshold_sigma_lsb: float = 0.0,
                 full_scale: float = 1.0,
                 sample_rate: float = 1e6,
                 rng: RngLike = None) -> None:
        if n_bits < 3:
            raise ValueError("PipelineADC needs n_bits >= 3")
        super().__init__(n_bits, full_scale, sample_rate)
        if gain_error_sigma < 0:
            raise ValueError("gain_error_sigma must be non-negative")
        if threshold_sigma_lsb < 0:
            raise ValueError("threshold_sigma_lsb must be non-negative")

        self.gain_error_sigma = float(gain_error_sigma)
        self.threshold_sigma_lsb = float(threshold_sigma_lsb)
        self.n_stages = n_bits - 2

        generator = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(rng))
        self.stage_gains = 2.0 * (1.0 + generator.normal(
            0.0, self.gain_error_sigma, size=self.n_stages))
        # Nominal 1.5-bit thresholds at -1/4 and +1/4 of the stage range.
        thr_sigma = self.threshold_sigma_lsb * self.lsb / self.full_scale
        self.stage_thresholds = np.stack([
            -0.25 + generator.normal(0.0, thr_sigma, size=self.n_stages),
            +0.25 + generator.normal(0.0, thr_sigma, size=self.n_stages),
        ], axis=1)

        self._tf = self._build_transfer()

    def _build_transfer(self) -> TransferFunction:
        """Extract the static transfer curve by a fine input sweep.

        The pipeline digitises a ramp of 64 points per nominal LSB
        (:func:`dense_transitions`) and each transition sits where the
        running maximum of the output first reaches its code.  The raw
        sweep need not be monotone: a stage gain above 2 can make the
        output step down after a decision boundary (1,542 of 2,000 dies at
        the backend's default mismatch, 3% gain and 0.5 LSB threshold
        sigma, at 6 bits).  Codes that never appear (missing codes) inherit
        the next transition, giving them zero width, which is exactly how a
        histogram test would see them.
        """
        transitions = dense_transitions(
            self.stage_gains[None], self.stage_thresholds[None, :, 0],
            self.stage_thresholds[None, :, 1], self.full_scale)[0]
        return TransferFunction(n_bits=self.n_bits, transitions=transitions,
                                full_scale=self.full_scale)

    def transfer_function(self) -> TransferFunction:
        """Return the extracted static transfer curve."""
        return self._tf

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"PipelineADC(n_bits={self.n_bits}, "
                f"gain_error_sigma={self.gain_error_sigma:.4f})")


# ---------------------------------------------------------------------- #
# The signal chain over a device axis
# ---------------------------------------------------------------------- #
#
# Every function below takes per-die parameter matrices: ``gains``, ``low``
# and ``high`` of shape ``(n_devices, n_stages)`` hold each die's residue
# gains (nominal 2) and sub-ADC thresholds (nominal -1/4 and +1/4), in
# units of the normalised input range [-1, 1).


def _decide(residue, low, high):
    """A 1.5-bit stage decision d in {-1, 0, +1}."""
    return np.where(residue < low, -1, np.where(residue >= high, 1, 0))


def _amplify(residue, decision, gain):
    """The residue passed on: ``gain * (residue - d/2)``.

    Normalised so that an ideal gain of 2 maps the selected third back onto
    the full range.  A real stage may overrange slightly; the final flash
    clips it.
    """
    return gain * (residue - decision * 0.5)


def _stage_weight(n_bits: int, stage: int) -> float:
    # Digital error correction: each stage contributes d * 2**(remaining
    # bits - 1), half-overlapping the next stage (the redundancy of the
    # 1.5-bit stage).
    return 2.0 ** (n_bits - 2 - stage)


def _flash(residue):
    """The final 2-bit flash over [-1, 1)."""
    return np.clip(np.floor((residue + 1.0) * 2.0), 0, 3)


def _output_code(acc, flash, n_bits: int) -> np.ndarray:
    n_codes = 1 << n_bits
    codes = acc + flash + (n_codes // 2 - 2)
    return np.clip(codes, 0, n_codes - 1).astype(np.int64)


def _sweep_grid(n_bits: int, full_scale: float):
    """The shared input sweep: ``_OVERSAMPLE`` points per nominal LSB.

    Returns the sweep voltages ``v`` and the normalised inputs ``x`` in
    [-1, 1); ``x`` never decreases along the sweep.
    """
    n_points = (1 << n_bits) * _OVERSAMPLE
    v = np.linspace(0.0, full_scale, n_points, endpoint=False)
    return v, v / full_scale * 2.0 - 1.0


def dense_transitions(gains: np.ndarray, low: np.ndarray, high: np.ndarray,
                      full_scale: float = 1.0) -> np.ndarray:
    """Transition voltages read off a dense sweep of every die.

    The reference signal chain: each die digitises the whole sweep (64
    points per nominal LSB) through ``n_stages`` stages of 1.5 bits and the
    final 2-bit flash, and transition ``c`` is the sweep voltage where the
    running maximum of its output first reaches code ``c``.  Allocates
    ``(n_devices, codes * 64)`` matrices; :func:`search_transitions` gives
    the same result without them.
    """
    n_devices, n_stages = gains.shape
    n_bits = n_stages + 2
    n_codes = 1 << n_bits
    v, x = _sweep_grid(n_bits, full_scale)
    residue = np.broadcast_to(x, (n_devices, x.size)).copy()
    acc = np.zeros_like(residue)
    for stage in range(n_stages):
        d = _decide(residue, low[:, stage, None], high[:, stage, None])
        acc += d * _stage_weight(n_bits, stage)
        residue = _amplify(residue, d, gains[:, stage, None])
    codes = _output_code(acc, _flash(residue), n_bits)
    codes = np.maximum.accumulate(codes, axis=1)
    # First sweep index reaching code c = number of points with a smaller
    # code, read from the per-die code histogram.
    keys = (np.arange(n_devices)[:, None] * n_codes + codes).ravel()
    hist = np.bincount(keys, minlength=n_devices * n_codes)
    idx = np.cumsum(hist.reshape(n_devices, n_codes)[:, :-1], axis=1)
    return v[np.minimum(idx, x.size - 1)]


def _first_reaching(rank, lo: np.ndarray, hi: np.ndarray,
                    guess: np.ndarray) -> np.ndarray:
    """Cut ``j`` of each segment ``[lo, hi)``: the first index whose rank
    reaches ``j + 1``, or ``hi`` if none does.

    ``rank(seg, index)`` must never fall along a segment.  Each guess is
    confirmed by the ranks at its index and at the one before it; a
    vectorised bisection settles the misses.
    """
    first, last = lo[:, None], hi[:, None]
    n_cuts = guess.shape[1]
    level = np.arange(1, n_cuts + 1)
    guess = np.where(np.isfinite(guess), guess, first)
    cut = np.ceil(np.clip(guess, first, last)).astype(np.int64)
    ranks = rank(slice(None), np.concatenate(
        [np.minimum(cut, last - 1), np.maximum(cut - 1, first)], axis=1))
    late = (cut < last) & (ranks[:, :n_cuts] < level)
    early = (cut > first) & (ranks[:, n_cuts:] >= level)
    seg, j = np.nonzero(early | late)
    # Bisect [start, stop]; stop reaches the level or is the segment end.
    start = np.where(late[seg, j], cut[seg, j] + 1, lo[seg])
    stop = np.where(early[seg, j], cut[seg, j] - 1, hi[seg])
    while True:
        open_ = np.flatnonzero(start < stop)
        if not open_.size:
            break
        mid = (start[open_] + stop[open_]) // 2
        reach = rank(seg[open_], mid[:, None])[:, 0] > j[open_]
        stop[open_] = np.where(reach, mid, stop[open_])
        start[open_] = np.where(reach, start[open_], mid + 1)
    cut[seg, j] = start
    return cut


def search_transitions(gains: np.ndarray, low: np.ndarray,
                       high: np.ndarray,
                       full_scale: float = 1.0) -> np.ndarray:
    """The transitions of :func:`dense_transitions`, byte for byte, found by
    a breakpoint search instead of a dense sweep.

    Along one branch of stage decisions every residue is a monotone float
    function of the sweep index: ``x`` never decreases, and subtracting a
    constant or multiplying by a gain is monotone in IEEE arithmetic
    (falling once the branch's gains multiply to a negative sign, constant
    after a zero gain).  So along a branch each stage decision, and the
    final flash, steps one way only, each step at one index.  Starting
    from one segment per die (the whole sweep), each stage splits every
    segment where its decision changes; the index is guessed from the
    branch's affine model of the residue and confirmed on the exact chain
    (:func:`_first_reaching`).  Each leaf holds one output code; the first
    leaf where a die's running maximum reaches a code gives its
    transition.  Memory is O(segments), about two per code, instead of
    ``(n_devices, codes * 64)``.
    """
    n_devices, n_stages = gains.shape
    n_bits = n_stages + 2
    n_codes = 1 << n_bits
    v, x = _sweep_grid(n_bits, full_scale)
    n_points = x.size

    # One row per segment [lo, hi) of a die's sweep, in sweep order, with
    # the decisions of its branch so far.
    die = np.arange(n_devices)
    lo = np.zeros(n_devices, dtype=np.int64)
    hi = np.full(n_devices, n_points, dtype=np.int64)
    decisions = np.zeros((n_devices, n_stages), dtype=np.int8)
    acc = np.zeros(n_devices)
    # The branch's residue is about slope * x + offset; rising marks the
    # branches whose residue does not fall along the sweep.
    slope = np.ones(n_devices)
    offset = np.zeros(n_devices)
    rising = np.ones(n_devices, dtype=bool)

    for stage in range(n_stages + 1):
        final = stage == n_stages
        n_values = 4 if final else 3

        def rank(seg, index):
            """The stage's value at sweep indices ``index[i]`` of segment
            ``seg[i]``, counted 0 .. n_values - 1 along the sweep."""
            owner = die[seg]
            residue = x[index]
            for k in range(stage):
                residue = _amplify(residue, decisions[seg, k, None],
                                   gains[owner, k, None])
            if final:
                value = _flash(residue)
            else:
                value = _decide(residue, low[owner, stage, None],
                                high[owner, stage, None]) + 1
            return np.where(rising[seg, None], value, n_values - 1 - value)

        # The residues where the value steps, in sweep order.
        if final:
            steps = np.array([[-0.5, 0.0, 0.5]])  # floor((r + 1) * 2)
        else:
            steps = np.stack([low[die, stage], np.maximum(low[die, stage],
                                                          high[die, stage])],
                             axis=1)
        steps = np.where(rising[:, None], steps, steps[:, ::-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = ((steps - offset[:, None]) / slope[:, None] + 1.0) \
                * (n_points / 2)
        cut = _first_reaching(rank, lo, hi, guess)

        # Split every segment into n_values children in sweep order and
        # keep the non-empty ones.
        bounds = np.concatenate([lo[:, None], cut, hi[:, None]], axis=1)
        child_lo, child_hi = bounds[:, :-1].ravel(), bounds[:, 1:].ravel()
        keep = np.flatnonzero(child_lo < child_hi)
        parent = keep // n_values
        value = keep % n_values
        value = np.where(rising[parent], value, n_values - 1 - value)
        die, lo, hi = die[parent], child_lo[keep], child_hi[keep]
        if final:
            codes = _output_code(acc[parent], value, n_bits)
            break
        d = value - 1
        gain = gains[die, stage]
        decisions = decisions[parent]
        decisions[:, stage] = d
        acc = acc[parent] + d * _stage_weight(n_bits, stage)
        slope = gain * slope[parent]
        offset = _amplify(offset[parent], d, gain)
        rising = rising[parent] != (gain < 0)

    # A die's running-maximum code first reaches c at the start of the
    # first leaf whose running maximum does; dies are offset by n_codes so
    # one accumulation and one search serve the whole batch.
    reach = np.maximum.accumulate(codes + die * n_codes)
    wanted = (np.arange(n_devices)[:, None] * n_codes
              + np.arange(1, n_codes)).ravel()
    pos = np.searchsorted(reach, wanted)
    # A code the die never reaches finds the next die's leaf or the end.
    owned = (np.append(die, n_devices)[pos]
             == np.repeat(np.arange(n_devices), n_codes - 1))
    idx = np.where(owned, np.append(lo, n_points)[pos], n_points)
    return v[np.minimum(idx, n_points - 1)].reshape(n_devices, n_codes - 1)
