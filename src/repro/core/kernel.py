"""Shared vectorised BIST kernel: the stimulus→acquisition→stream pipeline.

Every BIST configuration in this library — full BIST (``q = 1``), partial
BIST with ``q`` LSBs off-chip, single device or wafer-scale batch, flash or
any other converter architecture — runs the same underlying pipeline:

1. **quantise** a stimulus against a batch of static transfer curves, giving
   a ``(devices, samples)`` code matrix (or, noise-free, just the
   transition-crossing events that define it),
2. derive the **bit streams** the on-chip hardware sees (the LSB for the
   full BIST, bit ``q`` for the partial scheme),
3. run the **MSB reference counter** that verifies the upper bits against
   the falling edges of the clocking bit,
4. for the partial scheme, **reconstruct** the full output codes from the
   ``q`` observed LSBs and histogram them for the off-chip analysis.

This module is that pipeline, written once with an explicit device axis.
The scalar engines (:class:`~repro.core.msb_checker.MsbChecker`,
:func:`~repro.core.partial_engine.reconstruct_codes`,
:class:`~repro.core.partial_engine.PartialBistEngine`) are batch-of-1
wrappers over these functions, and the production engines
(:mod:`repro.production.batch_engine`,
:mod:`repro.production.partial_batch`) call them with thousands of rows —
either directly (the noisy stream paths) or through the event-based fast
paths built on :func:`packed_crossing_events`, which evaluate the same
per-sample program only at the samples where anything changes.
:func:`batch_quantise_shared` is the reference semantics those event
reductions are equivalence-tested against.  The full-BIST stream path
works the same way after quantising: it reduces the code matrix to
:func:`code_change_events` and checks the MSB reference counter with
:func:`event_msb_mismatch`, which equals :func:`batch_msb_reference` on
every input.  Because every layer reduces to the same array program,
scalar and batch decisions agree bit for bit by construction.

All functions take and return plain :mod:`numpy` arrays; none of them draw
random numbers or hold state.

The large persistent matrices are stored in the narrowest integer dtype
that holds them with ×2 headroom — :func:`code_dtype` for code matrices,
:func:`index_dtype` for crossing and sample indices, :func:`hist_dtype`
for histograms — while reductions and transient intermediates stay int64,
so nothing can wrap.  :func:`auto_chunk_size` turns an engine's per-row
byte estimate under those dtypes into its default chunk size.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "CHUNK_BUDGET_BYTES",
    "CHUNK_CAP",
    "CHUNK_FLOOR",
    "auto_chunk_size",
    "batch_quantise_shared",
    "batch_quantise_rows",
    "batch_bit",
    "batch_falling_edges",
    "batch_msb_reference",
    "batch_reconstruct_codes",
    "batch_code_histogram",
    "batch_histogram_linearity",
    "batch_shared_ramp_histogram",
    "code_change_events",
    "code_dtype",
    "event_msb_mismatch",
    "hist_dtype",
    "index_dtype",
    "packed_crossing_events",
    "position_in_device",
    "shared_crossing_indices",
]


#: Working-set budget per engine chunk: the default ``chunk_size`` is the
#: number of device rows whose materialised per-row state fits this many
#: bytes (bounded by [CHUNK_FLOOR, CHUNK_CAP]).  Sized so a chunk's hot
#: arrays stay cache/bandwidth friendly while amortising NumPy call
#: overhead.
CHUNK_BUDGET_BYTES = 32 << 20
CHUNK_FLOOR = 64
CHUNK_CAP = 65536


def auto_chunk_size(row_bytes: int,
                    budget: int = CHUNK_BUDGET_BYTES,
                    floor: int = CHUNK_FLOOR,
                    cap: int = CHUNK_CAP) -> int:
    """Memory-bandwidth-aware default chunk size.

    ``row_bytes`` is the engine's estimate of bytes materialised per
    device row inside one chunk (noise matrices, code matrices, event
    intermediates) under the dtypes below.  Chunking never changes
    results, so this default only sets the working-set size.
    """
    row_bytes = max(int(row_bytes), 1)
    return int(max(floor, min(cap, budget // row_bytes)))


# Each dtype keeps ×2 headroom above the largest value it stores, so
# in-dtype arithmetic like ``code << 1`` or an off-by-one sentinel can
# never wrap.  Reductions (flat bincount keys, cumsum counters) stay int64
# at the call sites.

def code_dtype(n_levels: int) -> np.dtype:
    """Dtype for ADC code matrices holding values in ``[0, n_levels)``."""
    if 2 * n_levels <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    if 2 * n_levels <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def index_dtype(n_samples: int) -> np.dtype:
    """Dtype for sample/crossing indices in ``[0, n_samples]``."""
    if 2 * (n_samples + 1) <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def hist_dtype(n_samples: int) -> np.dtype:
    """Dtype for per-code histogram counts (bounded by ``n_samples``)."""
    if n_samples + 1 <= np.iinfo(np.uint32).max:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def _uniform_ramp_step(voltages: np.ndarray) -> Optional[float]:
    """The sample step if ``voltages`` is a uniformly spaced rising ramp.

    Returns ``None`` when the stimulus is too short, non-increasing, or
    deviates from the linear fit by more than an eighth of a step (bowed
    or noisy ramps) — callers then fall back to ``searchsorted``.
    """
    n = voltages.size
    if n < 8:
        return None
    step = (float(voltages[-1]) - float(voltages[0])) / (n - 1)
    if not np.isfinite(step) or step <= 0.0:
        return None
    ideal = voltages[0] + step * np.arange(n)
    if float(np.max(np.abs(voltages - ideal))) > 0.125 * step:
        return None
    return step


#: Transition levels per block of :func:`shared_crossing_indices` (128 KiB
#: of float64).  A block's temporaries stay in cache; an unblocked
#: 33k-device chunk streams each one (17 MB) through main memory.
CROSSING_BLOCK = 1 << 14


def shared_crossing_indices(transitions: np.ndarray,
                            voltages: np.ndarray) -> np.ndarray:
    """Crossing sample indices of transition levels into a shared ramp.

    Identical to ``np.searchsorted(voltages, transitions)`` on every
    input: entry ``[d, k]`` is the smallest sample index ``g`` with
    ``voltages[g] >= transitions[d, k]`` (``voltages.size`` when never
    reached).  On a *uniformly spaced* rising ramp each index is guessed
    once from the inverted ramp equation, ``g = ceil((x - v[0]) / step)``
    clipped to ``[0, n]``, and accepted when ``v[g - 1] < x <= v[g]``
    (with ``v[-1] = -inf`` and ``v[n] = +inf``).  That test is the
    definition of a left ``searchsorted`` on a sorted ramp, so an
    accepted guess is exact; the rare misses (levels within rounding of
    a sample, non-finite levels) are re-derived with ``searchsorted``.
    This removes the ``log(samples)`` binary search from the noise-free
    event paths.  Levels are processed in :data:`CROSSING_BLOCK`-sized
    blocks so the float temporaries stay in cache.  Stimuli that are not
    uniform ramps (bowed, noisy, too short) take ``searchsorted``
    directly.

    The returned dtype is :func:`index_dtype`.
    """
    transitions = np.asarray(transitions, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    n_samples = voltages.size
    out_dtype = index_dtype(n_samples)
    flat = transitions.ravel()
    step = _uniform_ramp_step(voltages)
    if step is None:
        idx = np.searchsorted(voltages, flat)
        return idx.astype(out_dtype, copy=False).reshape(transitions.shape)
    # below[g] = v[g - 1] and above[g] = v[g] for g in [0, n].
    below = np.concatenate(([-np.inf], voltages))
    above = np.concatenate((voltages, [np.inf]))
    out = np.empty(flat.size, dtype=out_dtype)
    for start in range(0, flat.size, CROSSING_BLOCK):
        x = flat[start:start + CROSSING_BLOCK]
        guess = x - voltages[0]
        guess /= step
        np.ceil(guess, out=guess)
        np.fmax(guess, 0.0, out=guess)  # also maps NaN to 0 (then a miss)
        np.fmin(guess, n_samples, out=guess)
        idx = guess.astype(np.intp)
        hit = below.take(idx) < x
        hit &= x <= above.take(idx)
        if not hit.all():
            miss = ~hit
            idx[miss] = np.searchsorted(voltages, x[miss])
        out[start:start + CROSSING_BLOCK] = idx
    return out.reshape(transitions.shape)


def batch_quantise_shared(transitions: np.ndarray,
                          voltages: np.ndarray) -> np.ndarray:
    """Quantise one shared, monotone stimulus against a batch of curves.

    The noise-free acquisition of every BIST configuration: all devices see
    the identical rising ramp, so the full code matrix follows from the
    *crossing events* alone.  ``crossing[d, k]`` — the first sample whose
    ramp voltage reaches transition ``k`` of device ``d`` — comes from
    :func:`shared_crossing_indices` (a ``searchsorted`` of every level
    into the ramp); the output code at sample ``t`` is the number of
    crossings at or before ``t`` (a thermometer count, so non-monotone
    faulty curves are handled exactly like
    :meth:`repro.adc.transfer.TransferFunction.convert` handles them).

    Parameters
    ----------
    transitions:
        ``(devices, n_transitions)`` matrix of transition voltages.
    voltages:
        The shared stimulus samples, strictly increasing (a rising ramp).

    Returns
    -------
    numpy.ndarray
        ``(devices, samples)`` code matrix in :func:`code_dtype`; row
        ``d`` equals
        ``TransferFunction.convert`` of device ``d`` applied to
        ``voltages``.
    """
    transitions = np.asarray(transitions, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    if transitions.ndim != 2:
        raise ValueError("transitions must be a (devices, levels) matrix")
    if voltages.ndim != 1:
        raise ValueError("voltages must be one-dimensional")
    n_devices = transitions.shape[0]
    n_samples = voltages.size
    crossing = shared_crossing_indices(transitions, voltages)
    # Scatter the crossing multiplicities onto the sample axis and
    # accumulate: codes[d, t] = #{k : crossing[d, k] <= t}.  Crossings at
    # n_samples (never reached within the record) land in a discarded
    # overflow column.  Keys stay int64 (the flat index spans
    # devices * samples); only the stored code matrix compacts.
    keys = (np.arange(n_devices, dtype=np.int64)[:, None] * (n_samples + 1)
            + crossing).ravel()
    steps = np.bincount(keys, minlength=n_devices * (n_samples + 1))
    steps = steps.reshape(n_devices, n_samples + 1)[:, :n_samples]
    return np.cumsum(steps, axis=1,
                     dtype=code_dtype(transitions.shape[1] + 1))


def packed_crossing_events(crossing: np.ndarray, n_samples: int
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]:
    """Left-packed (device, event) layout of shared-ramp crossing events.

    The event-based engines never materialise the ``(devices, samples)``
    code matrix: with a shared monotone stimulus the acquisition is fully
    described by *when* each transition is crossed.  This helper reduces a
    crossing-index matrix to the per-device event list both the full-BIST
    engine (irregular devices) and the partial-BIST engine build on.

    Parameters
    ----------
    crossing:
        ``(devices, n_transitions)`` matrix of crossing sample indices, as
        produced by :func:`shared_crossing_indices`.  Indices
        of 0 mean "already crossed at the first sample" (they raise the
        start code), indices of ``n_samples`` or beyond mean "never
        crossed within the record".
    n_samples:
        Length of the acquisition.

    Returns
    -------
    tuple
        ``(start_code, mult, times, live, n_events)``.  ``start_code`` is
        the per-device output code at sample 0.  ``mult``/``times`` are
        ``(devices, max_events)`` matrices holding, left-packed, the
        number of transitions folded onto each event sample and the sample
        index of the event; padding columns have multiplicity 0 and time
        ``n_samples`` (a zero-length tail segment), and ``live`` marks the
        real entries.  ``n_events`` counts them per device.
    """
    crossing = np.asarray(crossing)
    if crossing.ndim != 2:
        raise ValueError("crossing must be a (devices, levels) matrix")
    n_devices = crossing.shape[0]
    start_code = (crossing == 0).sum(axis=1)

    in_range = (crossing >= 1) & (crossing <= n_samples - 1)
    dev = np.nonzero(in_range)[0]
    keys = dev * n_samples + crossing[in_range]
    keys.sort()
    uniq, mult = np.unique(keys, return_counts=True)
    ev_dev = uniq // n_samples
    ev_t = uniq - ev_dev * n_samples
    n_events = np.bincount(ev_dev, minlength=n_devices)
    width = int(n_events.max()) if n_events.size else 0

    mult_p = np.zeros((n_devices, width),
                      dtype=code_dtype(crossing.shape[1] + 1))
    times_p = np.full((n_devices, width), n_samples,
                      dtype=index_dtype(n_samples))
    live = np.zeros((n_devices, width), dtype=bool)
    starts = np.concatenate(([0], np.cumsum(n_events)[:-1]))
    pos = np.arange(uniq.size) - np.repeat(starts, n_events)
    mult_p[ev_dev, pos] = mult
    times_p[ev_dev, pos] = ev_t
    live[ev_dev, pos] = True
    return start_code, mult_p, times_p, live, n_events


#: Vectorised ±1 correction passes :func:`batch_quantise_rows` spends on
#: the elements its first guess misplaced; anything still moving after
#: them is re-derived with ``searchsorted``.
QUANTISE_PASSES = 16


def batch_quantise_rows(transitions: np.ndarray, voltages: np.ndarray,
                        stimulus: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Quantise per-device voltage rows against per-device curves.

    The general (noisy) acquisition: each device sees its own voltage
    waveform, the shared noise-free ``stimulus`` plus per-device noise.
    Entry ``[d, t]`` is the number of transitions of device ``d`` at or
    below ``voltages[d, t]`` — the thermometer count the scalar
    :meth:`~repro.adc.transfer.TransferFunction.convert` computes for
    monotone and non-monotone curves alike.  That count does not depend
    on the order of the transitions, so every row is sorted once and one
    program serves both kinds of curve:

    1. when ``stimulus`` rises, the noise-free code of every sample is
       built from the :func:`shared_crossing_indices` segments of the
       sorted rows (the first guess);
    2. each element is compared with the two transitions bracketing its
       guessed code and stepped by ±1, in at most
       :data:`QUANTISE_PASSES` vectorised passes over the elements that
       still move;
    3. any element still unplaced — every element when ``stimulus`` does
       not rise, such as a sine — is re-derived with a ``searchsorted``
       of its sorted row.

    The stimulus only seeds the guess, so the result is exact for any
    input free of NaNs.  The cost grows with the share of elements the
    noise moves off the guess: at 0.05 LSB of noise about 4% move, at
    2 LSB most do and each needs several passes.

    Parameters
    ----------
    transitions:
        ``(devices, n_transitions)`` matrix of transition voltages.
    voltages:
        ``(devices, samples)`` matrix of input voltages.
    stimulus:
        The ``(samples,)`` noise-free stimulus the voltages scatter
        around.
    out:
        Optional C-contiguous code matrix of the result's shape and dtype
        to write into.  A buffer reused from call to call spares the page
        faults of a fresh allocation of that size.

    Returns
    -------
    numpy.ndarray
        ``(devices, samples)`` code matrix in :func:`code_dtype`
        (``out`` when given).
    """
    transitions = np.asarray(transitions, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    stimulus = np.asarray(stimulus, dtype=float)
    if transitions.ndim != 2 or voltages.ndim != 2:
        raise ValueError("transitions and voltages must be 2-D matrices")
    if transitions.shape[0] != voltages.shape[0]:
        raise ValueError("transitions and voltages must agree on the "
                         "device axis")
    if stimulus.shape != voltages.shape[1:]:
        raise ValueError("stimulus must hold one voltage per sample")
    n_devices, n_levels = transitions.shape
    n_samples = voltages.shape[1]
    dtype = code_dtype(n_levels + 1)
    if out is None:
        codes = np.empty(voltages.shape, dtype=dtype)
    elif (out.shape != voltages.shape or out.dtype != dtype
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous {dtype} matrix "
                         f"of shape {voltages.shape}")
    else:
        codes = out
    if voltages.size == 0:
        return codes
    levels = np.sort(transitions, axis=1)
    if np.all(stimulus[1:] >= stimulus[:-1]):
        unplaced = _guess_and_correct(levels, voltages, stimulus, codes)
        unplaced_rows = np.unique(unplaced // n_samples)
    else:
        unplaced_rows = range(n_devices)
    for row in unplaced_rows:
        codes[row] = np.searchsorted(levels[row], voltages[row],
                                     side="right")
    return codes


def _guess_and_correct(levels: np.ndarray, voltages: np.ndarray,
                       stimulus: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Steps 1–2 of :func:`batch_quantise_rows` for a rising stimulus.

    Fills ``codes`` and returns the flat indices of the elements that
    were still moving after the last pass.
    """
    n_devices, n_levels = levels.shape
    n_samples = stimulus.size
    # Code c is right for v iff bounds[c] <= v < bounds[c + 1].  The NaN
    # cap fails every comparison, so no element steps past n_levels.
    bounds = np.empty((n_devices, n_levels + 2))
    bounds[:, 0] = -np.inf
    bounds[:, 1:-1] = levels
    bounds[:, -1] = np.nan
    # Segment c of a row spans the samples whose noise-free code is c.
    edges = np.empty((n_devices, n_levels + 2), dtype=np.int64)
    edges[:, 0] = 0
    edges[:, 1:-1] = shared_crossing_indices(levels, stimulus)
    edges[:, -1] = n_samples
    lengths = np.diff(edges, axis=1).ravel()
    flat_codes = codes.reshape(-1)
    flat_codes[:] = np.repeat(np.tile(np.arange(n_levels + 1,
                                                dtype=codes.dtype),
                                      n_devices), lengths)
    up = voltages >= np.repeat(bounds[:, 1:].ravel(),
                               lengths).reshape(voltages.shape)
    down = voltages < np.repeat(bounds[:, :-1].ravel(),
                                lengths).reshape(voltages.shape)
    # An element that steps keeps stepping the same way until placed.
    flat_bounds = bounds.ravel()
    unplaced = []
    for moved, step, side in ((up, 1, 1), (down, -1, 0)):
        moving = np.flatnonzero(moved)
        rows = moving // n_samples
        v = voltages[rows, moving - rows * n_samples]
        at = rows * (n_levels + 2) + flat_codes[moving] + side + step
        flat_codes[moving] += step
        for _ in range(QUANTISE_PASSES - 1):
            if not moving.size:
                break
            bound = flat_bounds[at]
            keep = np.flatnonzero(v >= bound if step > 0 else v < bound)
            moving, v, at = moving[keep], v[keep], at[keep] + step
            flat_codes[moving] += step
        unplaced.append(moving)
    return np.concatenate(unplaced)


def code_change_events(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(device, sample)`` indices where a code row changes value.

    Sample ``t`` is an event of device ``d`` when ``codes[d, t] !=
    codes[d, t - 1]``; the events come sorted by device, then sample —
    the order every edge-list consumer expects.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError("codes must be a (devices, samples) matrix")
    width = max(codes.shape[1] - 1, 1)
    flat = np.flatnonzero(codes[:, 1:] != codes[:, :-1])
    dev = flat // width
    return dev, flat - dev * width + 1


def batch_bit(codes: np.ndarray, index: int) -> np.ndarray:
    """Waveform of output bit ``index`` (0 = LSB) for every device."""
    if index < 0:
        raise ValueError("bit index must be non-negative")
    codes = np.asarray(codes)
    if codes.dtype.kind != "i":
        codes = codes.astype(np.int64)
    return (codes >> index) & 1


def batch_falling_edges(streams: np.ndarray) -> np.ndarray:
    """Sample-aligned falling edges of a ``(devices, samples)`` bit matrix.

    Entry ``[d, t]`` is 1 when stream ``d`` fell between samples ``t - 1``
    and ``t`` (the first column is always 0), matching the edge convention
    of the on-chip reference counter.
    """
    streams = np.asarray(streams)
    if streams.ndim != 2:
        raise ValueError("streams must be a (devices, samples) matrix")
    falling = np.zeros(streams.shape, dtype=np.int64)
    if streams.shape[1] > 1:
        falling[:, 1:] = (streams[:, :-1] == 1) & (streams[:, 1:] == 0)
    return falling


def batch_msb_reference(codes: np.ndarray, q: int,
                        clock: Optional[np.ndarray] = None
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the on-chip MSB reference counter over a batch of acquisitions.

    The hardware of Figure 2 for any partition point ``q``: a counter is
    loaded with the upper bits of the first sample, clocked by every
    falling edge of bit ``q`` (or of the supplied ``clock`` stream, e.g. a
    deglitched LSB), and compared against bits ``q+1 .. n`` of each sample.

    Parameters
    ----------
    codes:
        ``(devices, samples)`` output-code matrix.
    q:
        Partition point (1-based; bit ``q`` clocks the counter).
    clock:
        Optional ``(devices, samples)`` 0/1 matrix clocking the counter
        instead of the raw bit ``q``.

    Returns
    -------
    tuple
        ``(upper, reference, falling)`` — the per-sample upper bits, the
        reference-counter values, and the falling-edge indicator matrix.
        Callers derive mismatches as ``abs(upper - reference) > tolerance``.
        ``reference`` and ``falling`` are int64 (the counter is an
        unbounded cumulative sum); ``upper`` shares the code dtype.
    """
    codes = np.asarray(codes)
    if codes.dtype.kind != "i":
        codes = codes.astype(np.int64)
    if codes.ndim != 2:
        raise ValueError("codes must be a (devices, samples) matrix")
    if q < 1:
        raise ValueError("q must be at least 1")
    if clock is None:
        clock_bit = batch_bit(codes, q - 1)
    else:
        clock_bit = (np.asarray(clock) != 0).astype(np.int64)
        if clock_bit.shape != codes.shape:
            raise ValueError("clock must match codes in shape")
    upper = codes >> q
    falling = batch_falling_edges(clock_bit)
    reference = upper[:, :1] + np.cumsum(falling, axis=1)
    return upper, reference, falling


def position_in_device(dev: np.ndarray, n_devices: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Each event's 0-based index within its device, and each device's
    first event index, for events sorted by device."""
    counts = np.bincount(dev, minlength=n_devices)
    first = np.cumsum(counts) - counts
    return np.arange(dev.size) - first[dev], first


def event_msb_mismatch(start_code: np.ndarray, change_dev: np.ndarray,
                       change_t: np.ndarray, change_code: np.ndarray,
                       fall_dev: np.ndarray, fall_t: np.ndarray, q: int,
                       tolerance: int) -> np.ndarray:
    """The MSB reference-counter check of :func:`batch_msb_reference`,
    evaluated on events.

    The upper bits change only where the code changes, and the counter
    only at a falling clock edge, so ``upper - reference`` is constant
    between those events and the check need only look at them.  The result
    equals ``(abs(upper - reference) > tolerance).any(axis=1)`` of the
    matrix kernel.

    Parameters
    ----------
    start_code:
        Per-device code at sample 0.
    change_dev, change_t, change_code:
        Code-change events (:func:`code_change_events`) sorted by device,
        then sample, with the code from each event on.
    fall_dev, fall_t:
        Falling clock edges, sorted the same way, at most one per sample.
    q, tolerance:
        Partition point and the counts the upper bits may stray.

    Returns
    -------
    numpy.ndarray
        Per-device flag: a mismatch occurred somewhere in the record.
    """
    start_upper = np.asarray(start_code, dtype=np.int64) >> q
    change_upper = np.asarray(change_code, dtype=np.int64) >> q
    n_devices = start_upper.size
    span = int(max(change_t.max(initial=0), fall_t.max(initial=0))) + 1
    change_keys = change_dev * span + change_t
    fall_keys = fall_dev * span + fall_t
    fall_pos, first_fall = position_in_device(fall_dev, n_devices)
    mismatch = np.zeros(n_devices, dtype=bool)
    # At a code change the counter has seen every fall up to it ...
    seen = (np.searchsorted(fall_keys, change_keys, side="right")
            - first_fall[change_dev])
    drift = change_upper - start_upper[change_dev] - seen
    mismatch[change_dev[np.abs(drift) > tolerance]] = True
    # ... and at a fall the upper bits are those of the latest change.
    latest = np.searchsorted(change_keys, fall_keys, side="right") - 1
    upper = start_upper[fall_dev]
    held = latest >= 0
    held[held] = change_dev[latest[held]] == fall_dev[held]
    upper[held] = change_upper[latest[held]]
    drift = upper - start_upper[fall_dev] - (fall_pos + 1)
    mismatch[fall_dev[np.abs(drift) > tolerance]] = True
    return mismatch


def batch_reconstruct_codes(observed_lsbs: np.ndarray, q: int, n_bits: int,
                            initial_upper: Union[int, np.ndarray] = 0
                            ) -> np.ndarray:
    """Rebuild full output codes from the ``q`` observed LSBs, per device.

    The tester-side half of the partial BIST: for a rising stimulus that
    satisfies Equation (1) the upper bits increment exactly when the
    observed ``q``-bit field wraps (bit ``q`` falling), so the code is
    ``upper_counter * 2**q + observed``.  When the stimulus is too fast for
    the chosen ``q`` the wrap detection undercounts and the reconstruction
    diverges from the true codes — the breakdown the paper's Equation (1)
    guards against, observable here as nonzero reconstruction error.

    Parameters
    ----------
    observed_lsbs:
        ``(devices, samples)`` matrix of the captured ``q``-bit fields.
    q, n_bits:
        Partition point and full converter resolution.
    initial_upper:
        Upper bits at the first sample: a scalar shared by the batch or a
        per-device vector.
    """
    observed = np.asarray(observed_lsbs, dtype=np.int64)
    if observed.ndim != 2:
        raise ValueError("observed_lsbs must be a (devices, samples) matrix")
    if not 1 <= q <= n_bits:
        raise ValueError(f"q must be within [1, {n_bits}]")
    if observed.shape[1] == 0:
        return observed.copy()
    top_bit = (observed >> (q - 1)) & 1
    falling = batch_falling_edges(top_bit)
    initial = np.asarray(initial_upper, dtype=np.int64)
    if initial.ndim == 0:
        initial = np.full(observed.shape[0], int(initial), dtype=np.int64)
    # The running counter and the unclipped codes stay int64 — a
    # miscounted wrap (the Equation (1) breakdown) can push them far past
    # the code range before the clip.  Only the clipped result compacts.
    upper = initial[:, None] + np.cumsum(falling, axis=1)
    codes = (upper << q) + observed
    codes = np.clip(codes, 0, (1 << n_bits) - 1)
    return codes.astype(code_dtype(1 << n_bits), copy=False)


def batch_shared_ramp_histogram(transitions: np.ndarray,
                                voltages: np.ndarray) -> np.ndarray:
    """Per-device code-density histogram of a shared monotone ramp.

    The event-based shortcut of the conventional histogram test: with a
    shared rising ramp the code trajectory of every device is a
    non-decreasing staircase (the thermometer count of crossed
    transitions), so the number of samples landing in code ``c`` is the gap
    between the ``c``-th and ``c+1``-th sorted crossing indices — the full
    ``(devices, samples)`` code matrix never needs to exist.  Row ``d`` of
    the result equals ``bincount`` of
    :func:`batch_quantise_shared`'s row ``d`` (and therefore of the scalar
    :meth:`~repro.adc.transfer.TransferFunction.convert` codes).

    Parameters
    ----------
    transitions:
        ``(devices, n_transitions)`` matrix of transition voltages.
    voltages:
        The shared stimulus samples, strictly increasing (a rising ramp).

    Returns
    -------
    numpy.ndarray
        ``(devices, n_transitions + 1)`` integer matrix of per-code
        sample counts in :func:`hist_dtype`; every row sums to
        ``voltages.size``.
    """
    transitions = np.asarray(transitions, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    if transitions.ndim != 2:
        raise ValueError("transitions must be a (devices, levels) matrix")
    if voltages.ndim != 1:
        raise ValueError("voltages must be one-dimensional")
    n_samples = voltages.size
    crossing = shared_crossing_indices(transitions, voltages)
    # Sorting handles non-monotone faulty curves: the code at sample t is
    # the number of crossings at or before t, so code c spans the samples
    # between the c-th and (c+1)-th smallest crossing indices.
    boundaries = np.sort(np.clip(crossing, 0, n_samples), axis=1)
    n_devices = transitions.shape[0]
    padded = np.empty((n_devices, boundaries.shape[1] + 2),
                      dtype=boundaries.dtype)
    padded[:, 0] = 0
    padded[:, 1:-1] = boundaries
    padded[:, -1] = n_samples
    counts = np.diff(padded, axis=1)
    return counts.astype(hist_dtype(n_samples), copy=False)


def batch_histogram_linearity(counts: np.ndarray
                              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Device-axis DNL/INL from code-density histograms.

    The matrix form of :func:`repro.analysis.linearity.dnl_from_histogram`:
    the end bins are dropped, the inner bins are normalised by their mean,
    and the INL is the running sum of the DNL — the same reductions in the
    same order, so per-device figures are bit-identical to the scalar
    function's.  Where the scalar function raises on an all-empty inner
    histogram, the batch form flags the device in the returned
    ``measurable`` mask instead (its DNL/INL rows are meaningless).

    Parameters
    ----------
    counts:
        ``(devices, n_codes)`` histogram matrix.

    Returns
    -------
    tuple
        ``(dnl, inl, measurable)`` — two ``(devices, n_codes - 2)`` float
        matrices in LSB and the per-device validity mask.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1] < 3:
        raise ValueError("counts must be a (devices, >=3 codes) matrix")
    inner = counts[:, 1:-1]
    measurable = inner.sum(axis=1) > 0
    mean = inner.mean(axis=1)
    mean = np.where(mean == 0.0, 1.0, mean)
    dnl = inner / mean[:, None] - 1.0
    inl = np.cumsum(dnl, axis=1)
    return dnl, inl, measurable


def batch_code_histogram(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """Per-device code-density histogram of a ``(devices, samples)`` matrix.

    The off-chip histogram a tester accumulates per device; codes must
    already lie within ``[0, n_codes)``.
    """
    codes = np.asarray(codes)
    if codes.dtype.kind != "i":
        codes = codes.astype(np.int64)
    if codes.ndim != 2:
        raise ValueError("codes must be a (devices, samples) matrix")
    if n_codes < 1:
        raise ValueError("n_codes must be positive")
    n_devices = codes.shape[0]
    # Flat keys span devices * n_codes, so they are always int64.
    keys = (np.arange(n_devices, dtype=np.int64)[:, None] * n_codes
            + codes).ravel()
    counts = np.bincount(keys, minlength=n_devices * n_codes)
    return counts.reshape(n_devices, n_codes).astype(
        hist_dtype(codes.shape[1]), copy=False)
