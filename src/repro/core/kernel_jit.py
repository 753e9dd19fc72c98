"""JIT-compiled event kernels for the ``numba`` backend.

Loop translations of two event-path kernels —
:func:`repro.core.kernel.packed_crossing_events` and
:func:`repro.core.kernel.batch_msb_reference` — compiled with
:func:`numba.njit` when numba is importable.  The import is gated: without
numba the same functions remain plain-Python loop references, which keeps
this module importable (and its logic testable against the vectorised
kernels on small inputs) in environments where the ``numba`` backend
itself is unavailable.

Equivalence contract: integer outputs are bit-exact against the NumPy
kernels by construction (same per-sample program, same order); float
outputs downstream of these kernels fall under the ``numba`` backend's
tolerance tier because JIT loops may re-associate float sums.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover - the default environment
    _numba = None

#: True when the loops below are actually numba-compiled.
NUMBA_AVAILABLE = _numba is not None

__all__ = [
    "NUMBA_AVAILABLE",
    "batch_msb_reference_jit",
    "packed_crossing_events_jit",
]


def _jit(func):
    """``numba.njit`` when available, otherwise the plain-Python loop."""
    if _numba is not None:  # pragma: no cover - numba environments only
        return _numba.njit(cache=True)(func)
    return func


# --------------------------------------------------------------------- #
# packed_crossing_events
# --------------------------------------------------------------------- #

@_jit
def _event_stats(crossing, n_samples, start_code, n_events):
    n_devices, n_levels = crossing.shape
    for d in range(n_devices):
        row = np.sort(crossing[d])
        starts = 0
        count = 0
        prev = -1
        for k in range(n_levels):
            c = row[k]
            if c == 0:
                starts += 1
            elif 1 <= c <= n_samples - 1:
                if c != prev:
                    count += 1
                    prev = c
        start_code[d] = starts
        n_events[d] = count


@_jit
def _event_fill(crossing, n_samples, mult_p, times_p, live):
    n_devices, n_levels = crossing.shape
    for d in range(n_devices):
        row = np.sort(crossing[d])
        pos = -1
        prev = -1
        for k in range(n_levels):
            c = row[k]
            if 1 <= c <= n_samples - 1:
                if c != prev:
                    pos += 1
                    prev = c
                    times_p[d, pos] = c
                    live[d, pos] = True
                mult_p[d, pos] += 1


def packed_crossing_events_jit(crossing: np.ndarray, n_samples: int,
                               mult_dtype, time_dtype):
    """JIT variant of :func:`repro.core.kernel.packed_crossing_events`.

    Same return contract (``start_code, mult, times, live, n_events``)
    and bit-exact values; ``crossing`` must be a C-contiguous int64
    matrix.
    """
    n_devices = crossing.shape[0]
    start_code = np.zeros(n_devices, dtype=np.int64)
    n_events = np.zeros(n_devices, dtype=np.int64)
    if n_devices:
        _event_stats(crossing, n_samples, start_code, n_events)
    width = int(n_events.max()) if n_devices else 0
    mult_p = np.zeros((n_devices, width), dtype=mult_dtype)
    times_p = np.full((n_devices, width), n_samples, dtype=time_dtype)
    live = np.zeros((n_devices, width), dtype=np.bool_)
    if width:
        _event_fill(crossing, n_samples, mult_p, times_p, live)
    return start_code, mult_p, times_p, live, n_events


# --------------------------------------------------------------------- #
# batch_msb_reference
# --------------------------------------------------------------------- #

@_jit
def _msb_reference_fill(codes, clock_bit, q, upper, reference, falling):
    n_devices, n_samples = codes.shape
    for d in range(n_devices):
        ref = codes[d, 0] >> q
        prev = clock_bit[d, 0]
        for t in range(n_samples):
            upper[d, t] = codes[d, t] >> q
            cb = clock_bit[d, t]
            f = 1 if (t > 0 and prev == 1 and cb == 0) else 0
            falling[d, t] = f
            ref += f
            reference[d, t] = ref
            prev = cb


def batch_msb_reference_jit(codes: np.ndarray, clock_bit: np.ndarray,
                            q: int, upper_dtype):
    """JIT variant of the :func:`repro.core.kernel.batch_msb_reference`
    counter loop; bit-exact, ``upper`` in the backend's code dtype."""
    upper = np.empty(codes.shape, dtype=upper_dtype)
    reference = np.empty(codes.shape, dtype=np.int64)
    falling = np.zeros(codes.shape, dtype=np.int64)
    if codes.shape[0] and codes.shape[1]:
        _msb_reference_fill(codes, clock_bit, q, upper, reference, falling)
    return upper, reference, falling
