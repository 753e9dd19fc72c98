"""The complete BIST engine: stimulus, acquisition, on-chip processing.

:class:`BistEngine` ties the pieces of the methodology together exactly as the
paper's Figure 2/Figure 4 describe for the full-BIST (``q = 1``) case:

1. a slow ramp is applied whose slope realises the chosen per-sample step
   ``ds`` (Equation (5)),
2. the converter output is sampled at its own clock,
3. the upper bits are verified on-chip against a counter clocked by the LSB
   (:class:`~repro.core.msb_checker.MsbChecker`),
4. the LSB is deglitched and fed to the LSB processing block
   (:class:`~repro.core.lsb_processor.LsbProcessor`) which makes the DNL and
   INL pass/fail decisions with a ``counter_bits``-bit counter.

The engine also provides :meth:`BistEngine.run_population`, the Monte-Carlo
"measurement" used to regenerate the MEAS. columns of Table 1: every device
of a population is actually put through the sampled BIST and the resulting
accept/reject decisions are compared against the devices' true linearity.

Kernel layering: the decision logic lives in shared vectorised kernels —
the count-limit comparison in :mod:`repro.core.decision` and the
stimulus→acquisition→stream pipeline in :mod:`repro.core.kernel` (which the
:class:`~repro.core.msb_checker.MsbChecker` used here wraps batch-of-1).
The production engines (:mod:`repro.production.batch_engine`,
:mod:`repro.production.partial_batch`) run the same kernels over whole
wafers, which is why their decisions match this engine bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.adc.base import ADC, ConversionRecord
from repro.analysis.error_model import delta_s_for_counter
from repro.core.deglitch import DeglitchFilter
from repro.core.limits import CountLimits
from repro.core.lsb_processor import LsbProcessor, LsbProcessorResult
from repro.core.msb_checker import MsbChecker, MsbCheckResult
from repro.core.noise import DeviceNoise, NoiseSeed
from repro.signals.ramp import RampStimulus

__all__ = ["BistConfig", "BistResult", "PopulationBistResult", "BistEngine",
           "true_goodness"]

RngLike = Union[int, np.random.Generator, None]


def true_goodness(device: ADC, dnl_spec_lsb: float,
                  inl_spec_lsb: Optional[float] = None) -> bool:
    """True static-linearity classification of one converter.

    The reference against which the BIST's accept/reject decision is scored:
    a device is *truly good* when its end-point |DNL| (and, when an INL
    specification is given, its end-point |INL|) stays within the limits.
    Shared by :meth:`BistEngine.run_population` and the batch engine in
    :mod:`repro.production` so both Monte-Carlo paths score against the
    identical criterion.
    """
    tf = device.transfer_function()
    good = tf.max_dnl() <= dnl_spec_lsb
    if inl_spec_lsb is not None:
        good = good and tf.max_inl() <= inl_spec_lsb
    return bool(good)


@dataclass
class BistConfig:
    """Configuration of one BIST measurement.

    Parameters
    ----------
    n_bits:
        Resolution of the converter under test.
    counter_bits:
        Size of the sample counter in the LSB processing block (the paper's
        key area/accuracy knob, 4–7 bits in the experiments).
    dnl_spec_lsb:
        DNL specification in LSB (±); 0.5 for the paper's stringent setting,
        1.0 for the actual specification.
    inl_spec_lsb:
        INL specification in LSB (±); ``None`` disables the INL check
        (the paper's Table 1/2 experiments decide on DNL only).
    delta_s_lsb:
        Per-sample voltage step in LSB; when omitted it is derived from
        ``counter_bits`` so that the counter range is fully used, as in
        section 4 of the paper.
    deglitch_depth, deglitch_mode:
        Configuration of the LSB deglitch filter; depth 0 disables it.
    counter_saturate:
        Overflow policy of the sample counter.
    check_msb:
        Run the on-chip functionality check of the upper bits.
    transition_noise_lsb:
        Converter input-referred noise during the acquisition, in LSB.
    stimulus_noise_lsb:
        RMS noise on the ramp, in LSB.
    slope_error:
        Relative error of the realised ramp slope (the paper attributes its
        simulation/measurement discrepancy to roughly ``-0.002 LSB`` of step
        error, i.e. a slightly too steep ramp).
    start_margin_lsb:
        How far below the conversion range the ramp starts (and beyond the
        range it ends), in LSB.
    seed:
        Seed for the acquisition noise.
    """

    n_bits: int = 6
    counter_bits: int = 7
    dnl_spec_lsb: float = 1.0
    inl_spec_lsb: Optional[float] = None
    delta_s_lsb: Optional[float] = None
    deglitch_depth: int = 0
    deglitch_mode: str = "hysteresis"
    counter_saturate: bool = True
    check_msb: bool = True
    transition_noise_lsb: float = 0.0
    stimulus_noise_lsb: float = 0.0
    slope_error: float = 0.0
    start_margin_lsb: float = 2.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_bits < 2:
            raise ValueError("n_bits must be at least 2")
        if self.counter_bits < 1:
            raise ValueError("counter_bits must be at least 1")
        if self.dnl_spec_lsb < 0:
            raise ValueError("dnl_spec_lsb must be non-negative")
        if self.start_margin_lsb < 0:
            raise ValueError("start_margin_lsb must be non-negative")

    def resolved_delta_s_lsb(self) -> float:
        """The per-sample step actually used, in LSB."""
        if self.delta_s_lsb is not None:
            if self.delta_s_lsb <= 0:
                raise ValueError("delta_s_lsb must be positive")
            return self.delta_s_lsb
        return delta_s_for_counter(self.counter_bits, self.dnl_spec_lsb)

    def limits(self) -> CountLimits:
        """The count limits the LSB processing block will use."""
        return CountLimits.for_counter(self.counter_bits, self.dnl_spec_lsb,
                                       inl_spec_lsb=self.inl_spec_lsb,
                                       delta_s_lsb=self.resolved_delta_s_lsb())

    @property
    def msb_tolerance(self) -> int:
        """Counts the upper bits may stray from the MSB reference counter.

        One whenever transition noise flickers the code around upper-bit
        boundaries, or a deglitched LSB clocks the counter: the hysteresis
        filter delays every clock edge by ``deglitch_depth - 1`` samples,
        so the counter trails each upper-bit step by one count.
        """
        return int(self.transition_noise_lsb > 0 or self.deglitch_depth > 0)


@dataclass
class BistResult:
    """Outcome of one BIST run on one converter.

    Attributes
    ----------
    passed:
        Overall accept/reject decision of the BIST.
    lsb:
        Detailed result of the LSB processing block (DNL/INL decisions).
    msb:
        Result of the on-chip functionality check (``None`` when disabled).
    limits:
        The count limits used.
    samples_taken:
        Number of conversions in the acquisition.
    record:
        The raw conversion record (kept for diagnostics and examples).
    """

    passed: bool
    lsb: LsbProcessorResult
    msb: Optional[MsbCheckResult]
    limits: CountLimits
    samples_taken: int
    record: Optional[ConversionRecord] = field(default=None, repr=False)

    @property
    def measured_widths_lsb(self) -> np.ndarray:
        """Code widths as measured by the counting process, in LSB."""
        return self.lsb.measured_widths_lsb

    @property
    def measured_dnl_lsb(self) -> np.ndarray:
        """DNL estimate reconstructed from the counter readings."""
        return self.lsb.measured_dnl_lsb

    @property
    def off_chip_bits_transferred(self) -> int:
        """Output bits the tester would have had to capture without BIST.

        With the full BIST everything is processed on-chip, so the number of
        bits actually sent off-chip is the single pass/fail flag; this
        property reports the conventional-test volume for comparison.
        """
        return self.samples_taken


@dataclass
class PopulationBistResult:
    """Aggregate result of running the BIST over a device population.

    The decisions are compared against the devices' true static linearity,
    giving the measured (Monte-Carlo) type I and type II error rates — the
    MEAS. columns of Table 1.

    Two flavours of error rate are reported.  :attr:`type_i`/:attr:`type_ii`
    are *joint* fractions — ``P(good and rejected)`` and
    ``P(faulty and accepted)`` over all tested devices — matching the
    analytic Equations (6)/(7) and the convention of the paper's Table 1
    and Table 2.  :attr:`p_reject_given_good`/:attr:`p_accept_given_faulty`
    are the *conditional* rates (rejected-given-good, accepted-given-bad)
    often quoted as yield loss and defect level; divide the joint numbers by
    the respective prior, as in
    :class:`~repro.analysis.binomial.DeviceProbabilities`.
    """

    n_devices: int
    accepted: np.ndarray
    truly_good: np.ndarray

    @property
    def p_good(self) -> float:
        """Fraction of devices truly meeting the specification."""
        return float(self.truly_good.mean()) if self.n_devices else 0.0

    @property
    def p_accept(self) -> float:
        """Fraction of devices the BIST accepted."""
        return float(self.accepted.mean()) if self.n_devices else 0.0

    @property
    def type_i(self) -> float:
        """Measured joint fraction ``P(good and rejected)`` (Table 1/2)."""
        if self.n_devices == 0:
            return 0.0
        return float(np.mean(self.truly_good & ~self.accepted))

    @property
    def type_ii(self) -> float:
        """Measured joint fraction ``P(faulty and accepted)`` (Table 1/2)."""
        if self.n_devices == 0:
            return 0.0
        return float(np.mean(~self.truly_good & self.accepted))

    @property
    def p_reject_given_good(self) -> float:
        """Measured conditional type I rate ``P(rejected | good)``.

        The yield-loss figure a production engineer quotes; equals
        :attr:`type_i` divided by :attr:`p_good`.  Table 1 reports the
        joint :attr:`type_i`, not this conditional rate.
        """
        if self.p_good == 0.0:
            return 0.0
        return self.type_i / self.p_good

    @property
    def p_accept_given_faulty(self) -> float:
        """Measured conditional type II rate ``P(accepted | faulty)``.

        The defect-level figure (test escapes among bad devices); equals
        :attr:`type_ii` divided by ``1 - p_good``.  Table 1 reports the
        joint :attr:`type_ii`, not this conditional rate.
        """
        p_faulty = 1.0 - self.p_good
        if p_faulty == 0.0:
            return 0.0
        return self.type_ii / p_faulty

    @property
    def agreement(self) -> float:
        """Fraction of devices where BIST and true classification agree."""
        if self.n_devices == 0:
            return 1.0
        return float(np.mean(self.accepted == self.truly_good))


class BistEngine:
    """Run the paper's BIST on behavioural converters.

    Parameters
    ----------
    config:
        The measurement configuration.
    """

    def __init__(self, config: BistConfig) -> None:
        self.config = config
        self._limits = config.limits()
        self._deglitch = (DeglitchFilter(config.deglitch_depth,
                                         config.deglitch_mode)
                          if config.deglitch_depth > 0 else None)
        self._lsb_processor = LsbProcessor(
            self._limits, deglitch=self._deglitch,
            counter_saturate=config.counter_saturate)
        self._msb_checker = (MsbChecker(config.n_bits, q=1)
                             if config.check_msb else None)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def limits(self) -> CountLimits:
        """The count limits in use."""
        return self._limits

    def gate_count(self) -> int:
        """Total gate-equivalent estimate of the on-chip test circuitry."""
        total = self._lsb_processor.gate_count()
        if self._msb_checker is not None:
            total += self._msb_checker.gate_count()
        return total

    # ------------------------------------------------------------------ #
    # Stimulus construction
    # ------------------------------------------------------------------ #

    def build_ramp(self, adc: ADC) -> RampStimulus:
        """Build the test ramp realising the configured step size for ``adc``."""
        cfg = self.config
        delta_s_volts = self._limits.delta_s_lsb * adc.lsb
        slope = delta_s_volts * adc.sample_rate * (1.0 + cfg.slope_error)
        start = -cfg.start_margin_lsb * adc.lsb
        noise_sigma = cfg.stimulus_noise_lsb * adc.lsb
        return RampStimulus(slope=slope, start_voltage=start,
                            noise_sigma=noise_sigma,
                            rng=np.random.default_rng(cfg.seed))

    def _n_samples(self, adc: ADC, ramp: RampStimulus) -> int:
        """Number of samples needed for the ramp to cross the full range."""
        return ramp.n_samples_for_adc(adc,
                                      margin_lsb=self.config.start_margin_lsb)

    # ------------------------------------------------------------------ #
    # Single-device run
    # ------------------------------------------------------------------ #

    def run(self, adc: ADC, rng: RngLike = None,
            keep_record: bool = True) -> BistResult:
        """Run the full BIST measurement on one converter."""
        cfg = self.config
        if adc.n_bits != cfg.n_bits:
            raise ValueError(
                f"configuration is for {cfg.n_bits}-bit converters but the "
                f"device under test has {adc.n_bits} bits")
        generator = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(
                         rng if rng is not None else cfg.seed))
        ramp = self.build_ramp(adc)
        n_samples = self._n_samples(adc, ramp)
        record = adc.sample(ramp, n_samples=n_samples, rng=generator,
                            transition_noise_lsb=cfg.transition_noise_lsb)

        msb_result = None
        msb_ok = True
        if self._msb_checker is not None:
            # Clock the reference counter from the deglitched LSB and allow
            # the one-count slack that noise or the filter introduces.
            clock_stream = None
            if self._deglitch is not None:
                clock_stream = self._deglitch.apply(record.lsb_waveform)
            msb_result = self._msb_checker.check(
                record.codes, clock_stream=clock_stream,
                tolerance=cfg.msb_tolerance)
            msb_ok = msb_result.passed

        lsb_result = self._lsb_processor.process(record.lsb_waveform,
                                                 n_bits=cfg.n_bits)
        passed = lsb_result.passed and msb_ok
        return BistResult(passed=passed,
                          lsb=lsb_result,
                          msb=msb_result,
                          limits=self._limits,
                          samples_taken=n_samples,
                          record=record if keep_record else None)

    # ------------------------------------------------------------------ #
    # Population run (the MEAS. column of Table 1)
    # ------------------------------------------------------------------ #

    def run_population(self, devices: Iterable[ADC],
                       rng: NoiseSeed = None,
                       dnl_spec_lsb: Optional[float] = None,
                       inl_spec_lsb: Optional[float] = None
                       ) -> PopulationBistResult:
        """Run the BIST on every device and compare with the true linearity.

        Parameters
        ----------
        devices:
            Iterable of converters (e.g. a
            :class:`~repro.adc.population.DevicePopulation`).
        rng:
            Seed of the acquisition noise (``None``: the configuration's
            seed).  Device ``d`` of the iteration draws device ``d``'s
            keyed stream (:class:`~repro.core.noise.DeviceNoise`), as
            row ``d`` of a batch engine run does.
        dnl_spec_lsb, inl_spec_lsb:
            Specification used for the *true* classification; defaults to
            the configuration's specification, so type I/II rates are
            measured against the same limits the BIST decides on.
        """
        cfg = self.config
        if dnl_spec_lsb is None:
            dnl_spec_lsb = cfg.dnl_spec_lsb
        if inl_spec_lsb is None:
            inl_spec_lsb = cfg.inl_spec_lsb
        noise = DeviceNoise(cfg.seed if rng is None else rng)
        accepted: List[bool] = []
        truly_good: List[bool] = []
        for d, device in enumerate(devices):
            result = self.run(device, rng=noise.generator(d),
                              keep_record=False)
            accepted.append(result.passed)
            truly_good.append(true_goodness(device, dnl_spec_lsb,
                                            inl_spec_lsb))

        return PopulationBistResult(
            n_devices=len(accepted),
            accepted=np.asarray(accepted, dtype=bool),
            truly_good=np.asarray(truly_good, dtype=bool))
