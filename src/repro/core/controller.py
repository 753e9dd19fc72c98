"""Multi-converter BIST controller: testing several A/D converters at once.

"For chips containing more than one A/D converter the proposed methodology
has a major advantage, since several A/D converters can easily be tested in
parallel which reduces the test time and test costs significantly."  This
module models the on-chip arrangement that realises that claim:

* one shared ramp source drives every converter on the IC simultaneously,
* each converter has its own (small) LSB processing block and MSB checker —
  the per-converter hardware of :class:`~repro.core.engine.BistEngine`,
* a tiny controller sequences the test, collects the per-converter pass/fail
  flags into a result register, and exposes a single serial read-out.

Because the converters share the stimulus, the wall-clock test time of the
whole IC equals the time of a single ramp, regardless of how many converters
it carries — which is exactly the parallelism argument of the paper's
introduction, now backed by a behavioural model instead of a head count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.adc.base import ADC
from repro.core.engine import BistConfig, BistEngine, BistResult
from repro.core.noise import DeviceNoise, NoiseSeed

__all__ = ["MultiAdcBistController", "ChipBistResult"]


@dataclass
class ChipBistResult:
    """Result of testing one IC carrying several converters.

    Attributes
    ----------
    per_converter:
        The individual BIST results, in converter order.
    passed:
        True when every converter passed (the chip-level pass/fail flag).
    result_register:
        The packed pass/fail bits as the controller's result register would
        hold them (bit ``i`` set = converter ``i`` passed).
    test_time_s:
        Wall-clock time of the whole chip test — one shared ramp.
    serial_readout_bits:
        Number of bits the tester reads back (one per converter plus one
        chip-level flag).
    sequential_test_time_s:
        What the test time would have been had the converters been tested
        one after another (the conventional alternative), for comparison.
    """

    per_converter: List[BistResult]
    passed: bool
    result_register: int
    test_time_s: float
    serial_readout_bits: int
    sequential_test_time_s: float

    @property
    def n_converters(self) -> int:
        """Number of converters on the chip."""
        return len(self.per_converter)

    @property
    def failing_converters(self) -> List[int]:
        """Indices of converters that failed their BIST."""
        return [i for i, result in enumerate(self.per_converter)
                if not result.passed]

    @property
    def parallel_speedup(self) -> float:
        """Test-time reduction factor versus sequential testing."""
        if self.test_time_s == 0.0:
            return 1.0
        return self.sequential_test_time_s / self.test_time_s


class MultiAdcBistController:
    """Behavioural model of an on-chip controller testing many converters.

    Parameters
    ----------
    config:
        The per-converter BIST configuration (counter size, specification,
        noise, deglitch filter).  Every converter on the chip uses an
        identical copy of the test hardware, as a real layout would.
    """

    def __init__(self, config: BistConfig) -> None:
        self.config = config
        self._engine = BistEngine(config)

    # ------------------------------------------------------------------ #
    # Hardware cost
    # ------------------------------------------------------------------ #

    def gate_count(self, n_converters: int) -> int:
        """Gate-equivalent estimate for the whole chip's test logic.

        Per-converter blocks are replicated; the controller adds a small
        fixed overhead (sequencer, result register, serial read-out).
        """
        if n_converters < 1:
            raise ValueError("n_converters must be positive")
        per_converter = self._engine.gate_count()
        controller_overhead = 40 + 7 * n_converters
        return n_converters * per_converter + controller_overhead

    # ------------------------------------------------------------------ #
    # Chip-level test
    # ------------------------------------------------------------------ #

    def run_chip(self, converters: Sequence[ADC],
                 rng: NoiseSeed = None) -> ChipBistResult:
        """Test every converter on the chip with the shared ramp.

        Parameters
        ----------
        converters:
            The converters on the IC.  They must all have the resolution the
            configuration was built for; their mismatch realisations differ.
        rng:
            Seed of the acquisition noise (``None``: the configuration's
            seed).  Converter ``j`` draws device ``j``'s keyed stream
            (:class:`~repro.core.noise.DeviceNoise`), so its result does
            not depend on how many converters the chip carries.
        """
        return self._run_chip(converters, self._noise(rng), 0)

    def _noise(self, rng: NoiseSeed) -> DeviceNoise:
        return DeviceNoise(self.config.seed if rng is None else rng)

    def _run_chip(self, converters: Sequence[ADC], noise: DeviceNoise,
                  first: int) -> ChipBistResult:
        """Test a chip whose converter ``j`` is device ``first + j``."""
        if not converters:
            raise ValueError("the chip must carry at least one converter")
        results: List[BistResult] = []
        max_samples = 0
        for j, adc in enumerate(converters):
            result = self._engine.run(adc, rng=noise.generator(first + j),
                                      keep_record=False)
            results.append(result)
            max_samples = max(max_samples, result.samples_taken)

        sample_rate = converters[0].sample_rate
        test_time = max_samples / sample_rate
        sequential_time = sum(r.samples_taken for r in results) / sample_rate

        register = 0
        for i, result in enumerate(results):
            if result.passed:
                register |= (1 << i)
        passed = all(r.passed for r in results)

        return ChipBistResult(
            per_converter=results,
            passed=passed,
            result_register=register,
            test_time_s=test_time,
            serial_readout_bits=len(results) + 1,
            sequential_test_time_s=sequential_time)

    # ------------------------------------------------------------------ #
    # Lot-level helper
    # ------------------------------------------------------------------ #

    def run_lot(self, chips: Sequence[Sequence[ADC]],
                rng: NoiseSeed = None) -> Dict[str, float]:
        """Test a lot of chips and summarise quality and test time.

        The lot's converters are numbered in order, so converter ``j`` of
        chip ``c`` of a lot of ``k``-converter chips is device ``c*k + j``
        of ``rng`` (``None``: the configuration's seed) — the device key
        :meth:`repro.production.batch_engine.BistWaferEngine.run_chips`
        gives it.

        Returns a dict with ``chips_tested``, ``chips_passed``,
        ``converter_fallout`` (fraction of converters failing), and
        ``total_test_time_s``.
        """
        if not chips:
            raise ValueError("the lot must contain at least one chip")
        noise = self._noise(rng)
        chips_passed = 0
        converters_total = 0
        converters_failed = 0
        total_time = 0.0
        for chip in chips:
            result = self._run_chip(chip, noise, converters_total)
            chips_passed += int(result.passed)
            converters_total += result.n_converters
            converters_failed += len(result.failing_converters)
            total_time += result.test_time_s
        return {
            "chips_tested": float(len(chips)),
            "chips_passed": float(chips_passed),
            "converter_fallout": (converters_failed / converters_total
                                  if converters_total else 0.0),
            "total_test_time_s": total_time,
        }
