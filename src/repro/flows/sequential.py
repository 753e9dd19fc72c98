"""Wald-SPRT sequential decision station over the BIST code stream.

The paper's BIST decides after the full ramp: every code's counter reading
is compared against the count limits, and the flag is the AND over all
codes.  A sequential station decides *during* the ramp: each code
comparison is one observation, the per-device log-likelihood ratio of
"this device is faulty" against "this device is good" accumulates code by
code, and the device stops — accept or reject — the moment the ratio
crosses a Wald boundary.  Devices the record ends on undecided fall back
to the fixed-flow verdict, which makes the degenerate policy
(:meth:`SequentialPolicy.fixed`, both boundaries at infinity) reproduce
the fixed-count decision **bit-exactly**.

The observation stream is the per-code accept bit of the count-limit
comparison (:func:`repro.core.decision.decide_counts`) evaluated on the
crossing-index counts of the shared ramp — the identical computation the
noise-free event path of
:class:`~repro.production.batch_engine.BatchBistEngine` performs, shared
through :func:`repro.core.kernel.shared_crossing_indices`.  The
hypothesis probabilities come from the paper's closed-form error model:
``p0 = P(code accepted | device good)`` and ``p1 = P(code accepted |
device faulty)`` of
:class:`~repro.analysis.error_model.PerCodeProbabilities`.

Everything is vectorised over the device axis in the style of
:mod:`repro.core.decision`: one ``(devices, codes)`` boolean matrix in,
one cumulative-sum boundary crossing out, no per-device loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.error_model import PerCodeProbabilities
from repro.core.decision import decide_counts
from repro.core.kernel import shared_crossing_indices
from repro.core.limits import CountLimits

__all__ = [
    "SequentialDecision",
    "SequentialPolicy",
    "code_pass_matrix",
    "sprt_decide",
]

#: Default SPRT design risks: the probability of rejecting a good device
#: (``alpha``) and of accepting a faulty one (``beta``) the Wald
#: boundaries are derived from.
DEFAULT_ALPHA = 1e-3
DEFAULT_BETA = 1e-3


@dataclass(frozen=True)
class SequentialPolicy:
    """A Wald SPRT stopping rule over per-code accept observations.

    Hypotheses: H0 = "device good", H1 = "device faulty".  One
    observation is one code's accept bit ``x``; its log-likelihood-ratio
    increment is ``log(P(x|H1) / P(x|H0))`` with ``p0 = P(x=1|H0)`` and
    ``p1 = P(x=1|H1)``.  The cumulative sum is compared against
    ``log_reject = log((1-beta)/alpha)`` (cross upward → accept H1 →
    reject the device) and ``log_accept = log(beta/(1-alpha))`` (cross
    downward → accept H0 → accept the device).
    """

    p0: float
    p1: float
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    log_accept: float = -np.inf
    log_reject: float = np.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.p0 <= 1.0 or not 0.0 <= self.p1 <= 1.0:
            raise ValueError("p0 and p1 must be probabilities")
        if self.p1 > self.p0:
            raise ValueError(
                "p1 (accept prob of a faulty device's code) must not "
                "exceed p0 (accept prob of a good device's code)")
        if not 0.0 < self.alpha < 1.0 or not 0.0 < self.beta < 1.0:
            raise ValueError("alpha and beta must be in (0, 1)")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_per_code(cls, per_code: PerCodeProbabilities,
                      alpha: float = DEFAULT_ALPHA,
                      beta: float = DEFAULT_BETA) -> "SequentialPolicy":
        """Derive the policy from the paper's closed-form code model."""
        return cls(
            p0=float(per_code.p_accept_given_good),
            p1=float(per_code.p_accept_given_faulty),
            alpha=float(alpha), beta=float(beta),
            log_accept=math.log(beta / (1.0 - alpha)),
            log_reject=math.log((1.0 - beta) / alpha))

    @classmethod
    def fixed(cls) -> "SequentialPolicy":
        """The degenerate policy: boundaries at infinity, never stops.

        Every device runs the full record and takes the fixed-flow
        verdict — the bit-exact fixed-count decision, with zero saved
        samples.  ``p0 == p1`` makes every log-likelihood increment zero.
        """
        return cls(p0=0.5, p1=0.5)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def llr_pass(self) -> float:
        """Log-likelihood increment of an accepted code (``<= 0``)."""
        if self.p1 == self.p0:
            return 0.0
        return math.log(self.p1 / self.p0)

    @property
    def llr_fail(self) -> float:
        """Log-likelihood increment of a rejected code (``>= 0``)."""
        if self.p1 == self.p0:
            return 0.0
        if self.p0 >= 1.0:
            return np.inf
        return math.log((1.0 - self.p1) / (1.0 - self.p0))

    @property
    def min_accept_codes(self) -> float:
        """Consecutive accepted codes needed to cross the accept bound.

        ``inf`` for the degenerate fixed policy — the quantity the
        escape-bound analysis (:func:`repro.analysis.binomial.
        sequential_escape_bound`) is evaluated at.
        """
        step = self.llr_pass
        if not np.isfinite(self.log_accept) or step >= 0.0:
            return np.inf
        return math.ceil(self.log_accept / step)


@dataclass
class SequentialDecision:
    """Vectorised outcome of one sequential station pass.

    All arrays have one entry per device.  ``stop_codes`` counts the code
    observations each device consumed (``n_codes`` when it ran the full
    record); ``decided`` marks devices stopped by a boundary crossing
    rather than by the record's end.
    """

    accepted: np.ndarray
    stop_codes: np.ndarray
    decided: np.ndarray
    n_codes: int

    @property
    def n_devices(self) -> int:
        return int(self.accepted.size)

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


def sprt_decide(code_ok: np.ndarray, policy: SequentialPolicy,
                fixed_decision: Optional[np.ndarray] = None
                ) -> SequentialDecision:
    """Run the SPRT over a ``(devices, codes)`` accept-bit matrix.

    Vectorised over the device axis: the cumulative log-likelihood sum is
    one ``cumsum``, the stopping code is the first boundary crossing per
    row, and undecided devices (no crossing before the record ends) take
    ``fixed_decision`` — the fixed flow's verdict — or, when none is
    given, the all-codes-pass criterion.
    """
    code_ok = np.asarray(code_ok, dtype=bool)
    if code_ok.ndim != 2:
        raise ValueError("code_ok must be a (devices, codes) matrix")
    n_devices, n_codes = code_ok.shape
    if fixed_decision is None:
        fixed_decision = code_ok.all(axis=1)
    else:
        fixed_decision = np.asarray(fixed_decision, dtype=bool)
        if fixed_decision.shape != (n_devices,):
            raise ValueError("fixed_decision must be one bool per device")
    if n_devices == 0 or n_codes == 0:
        return SequentialDecision(
            accepted=fixed_decision.copy(),
            stop_codes=np.full(n_devices, n_codes, dtype=np.int64),
            decided=np.zeros(n_devices, dtype=bool),
            n_codes=n_codes)

    llr = np.where(code_ok, policy.llr_pass, policy.llr_fail)
    cumulative = np.cumsum(llr, axis=1)
    hit_accept = cumulative <= policy.log_accept
    hit_reject = cumulative >= policy.log_reject
    hit = hit_accept | hit_reject
    decided = hit.any(axis=1)
    # argmax on a boolean row gives the first True (0 for all-False rows,
    # which `decided` masks out).
    first = hit.argmax(axis=1)
    rows = np.arange(n_devices)
    accepted = np.where(decided,
                        hit_accept[rows, first] & ~hit_reject[rows, first],
                        fixed_decision)
    stop_codes = np.where(decided, first + 1, n_codes).astype(np.int64)
    return SequentialDecision(accepted=accepted, stop_codes=stop_codes,
                              decided=decided, n_codes=n_codes)


def code_pass_matrix(transitions: np.ndarray, ramp_voltages: np.ndarray,
                     limits: CountLimits,
                     saturate: bool = True) -> np.ndarray:
    """Per-code accept bits of every device under the shared ramp.

    The sequential station's observation stream: crossing-index counts of
    each device's transition levels into the ramp
    (:func:`~repro.core.kernel.shared_crossing_indices` — the same kernel
    the noise-free event path runs), decided per code with
    :func:`~repro.core.decision.decide_counts`.  Devices with folded or
    out-of-range crossings (gross faults the counter stream cannot even
    enumerate) observe failures from code one, so the SPRT rejects them
    at its first boundary check.
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
    ok = decision.dnl_pass & decision.inl_pass
    ok[~regular] = False
    return ok
