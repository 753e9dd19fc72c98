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
sweep (the production backend's draw).  The search holds each stage as one
table of dies by branches of stage decisions, so its memory is O(dies x
branch columns) rather than O(dies x sweep points).
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


def _amplify(residue, decision, gain, out=None):
    """The residue passed on: ``gain * (residue - d/2)``.

    Normalised so that an ideal gain of 2 maps the selected third back onto
    the full range.  A real stage may overrange slightly; the final flash
    clips it.  ``out`` may be ``residue``, to amplify it in place.
    """
    return np.multiply(gain, np.subtract(residue, decision * 0.5, out=out),
                       out=out)


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


def _reaches(residue, gains, decisions, final, level, falling):
    """Whether the stage's count along the sweep reaches a level.

    ``residue`` holds the sweep inputs ``x`` at the evaluated indices and
    is overwritten.  ``gains`` and ``decisions`` hold each earlier stage's
    gain and the branch's decision, ``level`` the residue (``r + 1`` for
    the ``final`` flash) where the value steps to the level, and
    ``falling`` the dies whose residues fall along the sweep.  Everything
    broadcasts against ``residue``.

    The residue is the exact chain of :func:`dense_transitions`.  Its
    stage value is read by comparison, and the comparison is exact: a
    decision is ``[r >= low] + [r >= max(low, high)] - 1`` (what
    :func:`_decide` gives, whichever threshold is larger), and the flash,
    ``floor((r + 1) * 2)``, reaches ``k`` where ``r + 1 >= k / 2``
    (doubling is exact).  Counted along the sweep, the value reaches the
    level where the residue is at or above ``level`` on a rising die, and
    below it on a falling one.
    """
    for gain, decision in zip(gains, decisions):
        _amplify(residue, decision, gain, out=residue)
    if final:
        residue += 1.0
    return (residue >= level) != falling


def _bisect(reaches, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The first index in ``[start, stop]`` of each miss that reaches its
    level, or ``stop``.

    ``reaches(miss, index)`` tells whether misses ``miss`` reach their
    level at ``index``; it never turns false further along the sweep, and
    ``stop`` reaches the level or ends the segment.
    """
    while True:
        open_ = np.flatnonzero(start < stop)
        if not open_.size:
            return start
        mid = (start[open_] + stop[open_]) // 2
        reach = reaches(open_, mid)
        stop[open_] = np.where(reach, mid, stop[open_])
        start[open_] = np.where(reach, start[open_], mid + 1)


def search_transitions(gains: np.ndarray, low: np.ndarray,
                       high: np.ndarray,
                       full_scale: float = 1.0) -> np.ndarray:
    """The transitions of :func:`dense_transitions`, byte for byte, found by
    a breakpoint search instead of a dense sweep.

    Along one branch of stage decisions every residue is a monotone float
    function of the sweep index: ``x`` never decreases, and subtracting a
    constant or multiplying by a gain is monotone in IEEE arithmetic
    (falling once the die's gains multiply to a negative sign, constant
    after a zero gain).  So along a branch each stage decision, and the
    final flash, steps one way only, each step at one index, and a die
    follows each branch over one segment of the sweep at most.

    Each stage is a table of dies by branches: a column is one prefix of
    stage decisions, shared by every die of the call, and holds each die's
    segment on that branch (empty where the die never takes it).  The
    stage cuts every segment where its value steps: each cut is guessed
    from the branch's affine model of the die's residue, confirmed on the
    exact chain at the cut and at the index before it (:func:`_reaches`),
    and bisected on a miss.  The children that are non-empty on some die
    are the next stage's columns.  After the final flash each leaf column
    holds one output code on every die, so transition ``c`` starts at the
    earliest non-empty leaf whose code is at least ``c``.  Memory is
    O(dies x branch columns) instead of ``(n_devices, codes * 64)``: at the
    production backend's default mismatch the final flash's table has 228
    leaf columns at 6 bits (1,024 dies) and about 4,700 at 10 bits (64
    dies).
    """
    n_devices, n_stages = gains.shape
    n_bits = n_stages + 2
    n_codes = 1 << n_bits
    v, x = _sweep_grid(n_bits, full_scale)
    n_points = x.size

    # Per branch column: its decisions (one row per stage) and their
    # weighted sum.  Per die and column: the segment [lo, hi) and the
    # offset of the residue, about slope * x + offset there.  Per die: the
    # slope, the product of its gains so far, and whether its residues
    # rise along the sweep.
    decisions = np.zeros((0, 1), dtype=np.int8)
    acc = np.zeros(1)
    lo = np.zeros((n_devices, 1), dtype=np.int64)
    hi = np.full((n_devices, 1), n_points, dtype=np.int64)
    offset = np.zeros((n_devices, 1))
    slope = np.ones(n_devices)
    rising = np.ones(n_devices, dtype=bool)

    for stage in range(n_stages + 1):
        final = stage == n_stages
        falling = ~rising[:, None]
        # The levels where the stage value steps, in sweep order: a
        # decision's thresholds, or the 0.5, 1 and 1.5 of r + 1 where the
        # flash floor((r + 1) * 2) steps (then modelled as r + 1).
        if final:
            levels = np.array([[0.5], [1.0], [1.5]])
            offset = offset + 1.0
        else:
            levels = np.stack(
                [low[:, stage], np.maximum(low[:, stage], high[:, stage])])
        levels = np.where(rising, levels, levels[::-1])
        n_cuts = len(levels)

        # Guess cut j of every segment where the affine model crosses level
        # j, as a table (n_cuts, dies, columns); fmax sends the NaN of a zero
        # slope to lo.
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = levels[..., None] - offset
            guess /= slope[:, None]
        guess += 1.0
        guess *= n_points / 2
        np.fmax(guess, lo, out=guess)
        np.minimum(guess, hi, out=guess)
        cut = np.ceil(guess, out=guess).astype(np.int64)

        # Confirm cut j by the count at it (reaches level j + 1) and at the
        # index before it (does not).  An empty segment reads a clipped
        # index and its answers are ignored.
        index = np.concatenate([np.minimum(cut, hi - 1),
                                np.maximum(cut - 1, lo)])
        reach = _reaches(x.take(index, mode="clip"),
                         gains.T[:stage, :, None], decisions, final,
                         np.concatenate([levels, levels])[..., None],
                         falling)
        miss = np.nonzero(((cut < hi) & ~reach[:n_cuts])
                          | ((cut > lo) & reach[n_cuts:]))
        if miss[0].size:
            j, die, col = miss

            def reaches(m, index):
                d, c = die[m], col[m]
                return _reaches(x[index], gains.T[:stage, d],
                                decisions[:, c], final, levels[j[m], d],
                                falling[d, 0])

            # A miss is late where its cut's count falls short, else early.
            late = ~reach[miss]
            cut[miss] = _bisect(
                reaches, np.where(late, cut[miss] + 1, lo[die, col]),
                np.where(late, hi[die, col], cut[miss] - 1))

        # The children of every column in value order: value v runs from
        # bound v to bound v + 1, counted from the top on falling dies.
        bounds = np.concatenate([lo[None], cut, hi[None]])
        starts = np.where(falling, bounds[-2::-1], bounds[:-1])
        stops = np.where(falling, bounds[:0:-1], bounds[1:])
        if final:
            break
        value, col = np.nonzero((starts < stops).any(axis=1))
        lo = np.ascontiguousarray(starts[value, :, col].T)
        hi = np.ascontiguousarray(stops[value, :, col].T)
        d = value - 1
        gain = gains[:, stage]
        decisions = np.vstack([decisions[:, col], d.astype(np.int8)])
        acc = acc[col] + d * _stage_weight(n_bits, stage)
        offset = _amplify(offset[:, col], d, gain[:, None])
        slope = gain * slope
        rising = rising != (gain < 0)

    # Every leaf holds one output code on all dies, and a die's running
    # maximum first reaches code c at the earliest start of a non-empty
    # leaf whose code is at least c: the earliest start per code, then a
    # minimum over the codes from c up.
    codes = _output_code(acc, np.arange(4)[:, None], n_bits).ravel()
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    heads = np.flatnonzero(np.diff(codes, prepend=-1))
    value, col = np.divmod(order, acc.size)
    np.copyto(starts, n_points, where=starts >= stops)
    earliest = np.full((n_codes, n_devices), n_points)
    earliest[codes[heads]] = np.minimum.reduceat(starts[value, :, col], heads)
    reach = np.minimum.accumulate(earliest[::-1])[-2::-1]
    return v.take(np.minimum(reach, n_points - 1).T)
