"""Whole-device probabilities from per-code probabilities (EQ 8 – 12).

The paper treats the converter as good only when *every* code width meets the
DNL specification, and accepted only when every code is accepted by the
counting process.  Under the approximation that the code widths are
independent and identically distributed (justified in the paper for 6 bits
and up because the ladder correlation ``-1/(N-1)`` is small — Equations (9)
and (10)), the device-level probabilities are products of the per-code ones:

* ``P(good)_device      = p_good ** N``                      (Equation (9))
* ``P(accept)_device    = p_accept ** N``
* ``P(good & accept)    = p_(good & accept) ** N``
* ``type I  = P(good & reject)  = P(good) - P(good & accept)``
* ``type II = P(faulty & accept) = P(accept) - P(good & accept)``

The module also provides the binomial *count* distribution of bad codes per
device (the "binomial distributions given in (EQ 11) and (EQ 12)") and the
first-order union-bound approximations ``N * p`` that are often quoted for
small probabilities, so the benchmarks can show all three levels of
approximation next to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

from repro.analysis.error_model import PerCodeProbabilities

__all__ = ["DeviceProbabilities", "BinomialDeviceModel"]


@dataclass(frozen=True)
class DeviceProbabilities:
    """Device-level outcome probabilities of one BIST measurement.

    Attributes
    ----------
    n_codes:
        Number of inner codes the device-level numbers refer to.
    p_good:
        Probability the device truly meets the DNL specification.
    p_accept:
        Probability the BIST accepts the device.
    p_good_and_accept:
        Probability the device is good and the BIST accepts it.
    type_i:
        ``P(good and rejected)`` — a good device lost to the test.
    type_ii:
        ``P(faulty and accepted)`` — a test escape.
    """

    n_codes: int
    p_good: float
    p_accept: float
    p_good_and_accept: float
    type_i: float
    type_ii: float

    @property
    def p_faulty(self) -> float:
        """Probability the device violates the specification."""
        return 1.0 - self.p_good

    @property
    def p_reject_given_good(self) -> float:
        """Conditional type I probability ``P(reject | good)``."""
        if self.p_good == 0.0:
            return 0.0
        return self.type_i / self.p_good

    @property
    def p_accept_given_faulty(self) -> float:
        """Conditional type II probability ``P(accept | faulty)``."""
        if self.p_faulty == 0.0:
            return 0.0
        return self.type_ii / self.p_faulty

    @property
    def type_ii_ppm(self) -> float:
        """Test escapes in parts per million of all tested devices.

        The paper's quality requirement is 10–100 ppm.
        """
        return self.type_ii * 1e6

    @property
    def yield_loss(self) -> float:
        """Fraction of all devices rejected although they are good."""
        return self.type_i


class BinomialDeviceModel:
    """Combine per-code probabilities into device-level probabilities.

    Parameters
    ----------
    per_code:
        The per-code probabilities from
        :meth:`repro.analysis.error_model.ErrorModel.per_code`.
    n_codes:
        Number of inner codes of the converter (``2**n - 2``; the paper's
        6-bit flash has 62).
    """

    def __init__(self, per_code: PerCodeProbabilities, n_codes: int) -> None:
        if n_codes < 1:
            raise ValueError("n_codes must be positive")
        self.per_code = per_code
        self.n_codes = int(n_codes)

    # ------------------------------------------------------------------ #
    # Exact (independence) product model
    # ------------------------------------------------------------------ #

    def device(self) -> DeviceProbabilities:
        """Device-level probabilities under the independence approximation."""
        n = self.n_codes
        pc = self.per_code
        p_good = pc.p_good ** n
        p_accept = pc.p_accept ** n
        p_both = pc.p_good_and_accept ** n
        return DeviceProbabilities(
            n_codes=n,
            p_good=p_good,
            p_accept=p_accept,
            p_good_and_accept=p_both,
            type_i=max(0.0, p_good - p_both),
            type_ii=max(0.0, p_accept - p_both))

    # ------------------------------------------------------------------ #
    # Binomial count distributions (EQ 11 / 12 view)
    # ------------------------------------------------------------------ #

    def bad_code_count_distribution(self) -> stats.rv_discrete:
        """Binomial distribution of the number of out-of-spec codes."""
        return stats.binom(self.n_codes, 1.0 - self.per_code.p_good)

    def rejected_code_count_distribution(self) -> stats.rv_discrete:
        """Binomial distribution of the number of codes the BIST rejects."""
        return stats.binom(self.n_codes, 1.0 - self.per_code.p_accept)

    def prob_at_least_one_bad_code(self) -> float:
        """``P(device faulty)`` via the binomial count (1 - P(zero bad))."""
        return float(1.0 - (self.per_code.p_good ** self.n_codes))

    def prob_at_least_one_rejected_code(self) -> float:
        """``P(device rejected)`` via the binomial count."""
        return float(1.0 - (self.per_code.p_accept ** self.n_codes))

    # ------------------------------------------------------------------ #
    # First-order (union bound) approximations
    # ------------------------------------------------------------------ #

    def type_i_union_bound(self) -> float:
        """Union-bound approximation ``N * P(type I per code)``.

        Accurate when the per-code probability is small; overestimates
        otherwise.  Useful as the "back of the envelope" the paper's ppm
        discussion implies.
        """
        return min(1.0, self.n_codes * self.per_code.type_i)

    def type_ii_union_bound(self) -> float:
        """Union-bound approximation ``N * P(type II per code)``."""
        return min(1.0, self.n_codes * self.per_code.type_ii)

    # ------------------------------------------------------------------ #
    # Correlation sensitivity (ablation of EQ 9)
    # ------------------------------------------------------------------ #

    def device_good_with_correlation(self, rho: Optional[float] = None,
                                     n_mc: int = 200_000,
                                     seed: int = 0) -> float:
        """``P(device good)`` without the independence approximation.

        Draws correlated Gaussian code-width vectors (uniform pairwise
        correlation ``rho``; default the ladder value ``-1/(N-1)`` over
        ``N = n_codes + 2`` codes) and evaluates how often every width stays
        within the spec window implied by the per-code good probability.
        This quantifies the error made by Equation (9) and is used by the
        correlation-ablation benchmark.
        """
        from repro.adc.population import correlated_code_widths

        pc = self.per_code
        if pc.p_good <= 0.0 or pc.p_good >= 1.0:
            return self.device().p_good
        # Invert the per-code good probability into a symmetric z-window.
        z = stats.norm.ppf(0.5 + pc.p_good / 2.0)
        widths = correlated_code_widths(n_mc, self.n_codes, sigma_lsb=1.0,
                                        rho=rho, rng=seed)
        deviations = np.abs(widths - 1.0)
        all_good = np.all(deviations <= z, axis=1)
        return float(all_good.mean())
