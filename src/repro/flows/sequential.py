"""Curtailed sequential station over the BIST code stream.

The paper's BIST decides after the full ramp: every code's counter reading
is compared against the count limits, and the flag is the AND over all
codes in ramp order.  A sequential station decides *during* the ramp, and
the only stopping rule that can never change that verdict is the
curtailed one: a device is rejected when its first failing code closes
and accepted at the end of the record.  A device rejected only by the
transition count or the MSB functionality check also runs to the end of
the record, because the tester learns those verdicts there.

The batch engine measures every device's stop on its own acquisition
(:attr:`repro.production.batch_engine.BatchBistResult.stop_codes`), so a
noisy or deglitched run stops where its counter stream failed.
:func:`sprt_decide` turns those stops into the station's economics, and
:func:`code_pass_matrix` is the noise-free per-code reference the engine's
stops are tested against.  Both functions and the ``"sprt"`` flow value
keep the names of the Wald test this station replaced, so scripts and
traces that look them up still find them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.decision import decide_counts
from repro.core.kernel import shared_crossing_indices
from repro.core.limits import CountLimits

__all__ = [
    "SequentialDecision",
    "code_pass_matrix",
    "sprt_decide",
]


@dataclass
class SequentialDecision:
    """Vectorised outcome of one sequential station pass.

    ``stop_codes`` has one entry per device: the code observations it
    consumed, ``n_codes`` when it ran the full record.
    """

    stop_codes: np.ndarray
    n_codes: int

    @property
    def n_devices(self) -> int:
        return int(self.stop_codes.size)

    @property
    def decided(self) -> np.ndarray:
        """Devices stopped (and rejected) before the end of the record."""
        return self.stop_codes < self.n_codes

    @property
    def observed_codes(self) -> int:
        """Total code observations consumed by the whole batch."""
        return int(self.stop_codes.sum())

    @property
    def total_codes(self) -> int:
        """Code observations the fixed flow would have consumed."""
        return self.n_devices * self.n_codes

    @property
    def saved_codes(self) -> int:
        """Code observations the sequential stopping avoided."""
        return self.total_codes - self.observed_codes

    @property
    def saved_fraction(self) -> float:
        """Fraction of the fixed flow's observations avoided."""
        total = self.total_codes
        return self.saved_codes / total if total else 0.0

    @property
    def n_stopped_early(self) -> int:
        """Devices decided before the end of the record."""
        return int(np.count_nonzero(self.decided))

    def stop_quartiles(self) -> np.ndarray:
        """Device counts per stop-time quartile of the record.

        Entry ``k`` counts devices whose stopping code fell in quartile
        ``k`` of ``[1, n_codes]`` — the deterministic histogram exported
        as the ``flow.stop_quartile.q*`` telemetry counters.
        """
        if self.n_devices == 0 or self.n_codes == 0:
            return np.zeros(4, dtype=np.int64)
        edges = np.ceil(np.arange(1, 4) * self.n_codes / 4.0)
        quartile = np.searchsorted(edges, self.stop_codes, side="left")
        return np.bincount(quartile, minlength=4).astype(np.int64)


def sprt_decide(stop_codes: np.ndarray, n_codes: int) -> SequentialDecision:
    """The sequential station's decision over per-device stops.

    ``stop_codes`` holds one stop per device within ``[1, n_codes]``,
    as :class:`~repro.production.batch_engine.BatchBistEngine` reports
    them; the verdicts stay the engine's.
    """
    stop_codes = np.asarray(stop_codes)
    if stop_codes.ndim != 1:
        raise ValueError("stop_codes must hold one stop per device")
    if stop_codes.size and (stop_codes.min() < 1
                            or stop_codes.max() > n_codes):
        raise ValueError(f"stop codes must lie within [1, {n_codes}]")
    return SequentialDecision(stop_codes=stop_codes, n_codes=int(n_codes))


def code_pass_matrix(transitions: np.ndarray, ramp_voltages: np.ndarray,
                     limits: CountLimits,
                     saturate: bool = True) -> np.ndarray:
    """Per-code accept bits of every device under the shared ramp.

    The noise-free reference of the engine's stops: crossing-index
    counts of each device's transition levels into the ramp
    (:func:`~repro.core.kernel.shared_crossing_indices` — the same kernel
    the noise-free event path runs), decided per code with
    :func:`~repro.core.decision.decide_counts`.  Devices with folded or
    out-of-range crossings are marked failing from code one; the engine
    instead stops them where their counter stream fails, so only regular
    devices are compared against this matrix.
    """
    transitions = np.asarray(transitions, dtype=float)
    ramp_voltages = np.asarray(ramp_voltages, dtype=float)
    crossing = shared_crossing_indices(transitions, ramp_voltages)
    n_samples = ramp_voltages.size
    counts = np.diff(crossing, axis=1)
    in_range = ((crossing >= 1) & (crossing <= n_samples - 1)).all(axis=1)
    regular = in_range & (counts > 0).all(axis=1)
    safe_counts = np.where(regular[:, None], counts, 1)
    decision = decide_counts(safe_counts, limits, saturate=saturate)
    ok = decision.code_pass
    ok[~regular] = False
    return ok
