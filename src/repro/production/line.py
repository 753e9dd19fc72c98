"""Screening-line orchestration: stations, yield and throughput accounting.

A :class:`ScreeningLine` is built from one
:class:`~repro.campaign.scenario.Scenario` and chains the stations a lot
passes through on the test floor:

1. **Screening station** — every die runs the batched test the
   scenario's ``method`` selects.  ``method="bist"`` (default) runs the
   batched BIST: in full-BIST mode
   (:class:`~repro.production.batch_engine.BatchBistEngine`) only a
   pass/fail flag leaves the chip; with ``q`` set the station runs the
   batched partial BIST
   (:class:`~repro.production.partial_batch.BatchPartialBistEngine`),
   capturing ``q`` LSBs per sample off-chip as Equation (1) demands for
   faster stimuli.  ``method="histogram"`` screens with the *conventional*
   ramp histogram test
   (:class:`~repro.production.analysis_batch.BatchHistogramTest`) and
   ``method="dynamic"`` with the single-tone FFT suite
   (:class:`~repro.production.analysis_batch.BatchDynamicSuite`) — both
   capture full output words on a mixed-signal tester, which is exactly
   the data-volume/tester-cost contrast the paper's comparison is about.
2. **Retest station** (optional) — rejected dies are re-inserted up to
   ``retest_attempts`` times.  With acquisition noise configured a
   borderline die can be recovered on a second ramp; in the noise-free
   nominal configuration the BIST is deterministic and retest recovers
   nothing (which the report makes visible).
3. **Binning station** — accepted dies are graded by the linearity the
   test actually measured (counter readings for the full BIST, the
   off-chip histogram for the partial BIST).

With ``devices_per_ic > 1`` the line screens multi-converter ICs: chips
are assembled from consecutive dies, every converter of a chip shares one
stimulus ramp, and the report carries chip-level yield alongside the
per-converter numbers (the paper's parallel-test argument).

Tester-floor economics ride along: every insertion is costed with
:func:`repro.economics.cost_model.cost_per_device` and scheduled with
:class:`repro.economics.parallel.ParallelTestSchedule`, so the report shows
devices/hour and cost per device for the configured tester — the paper's
economic argument, evaluated per lot under any (architecture, q) scenario.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.core.engine import BistConfig, PopulationBistResult
from repro.core.noise import NoiseSeed, noise_seed
from repro.economics.cost_model import TesterModel, TestPlan, cost_per_device
from repro.economics.parallel import ParallelTestSchedule
from repro.production.analysis_batch import (
    BatchDynamicSuite,
    BatchHistogramTest,
)
from repro.production.batch_engine import BatchBistEngine, chip_grouping
from repro.production.execution import (
    ExcursionAbort,
    ExecutionPlan,
    spc_scope,
)
from repro.production.lot import Lot, Wafer
from repro.production.partial_batch import BatchPartialBistEngine
from repro.telemetry.core import current_telemetry
from repro.telemetry.log import get_logger

if TYPE_CHECKING:
    from repro.campaign.scenario import Scenario

__all__ = ["StationStats", "LotScreeningReport", "ScreeningLine",
           "DEFAULT_BIN_EDGES_LSB", "SCREENING_METHODS"]

_log = get_logger("line")


#: Default measured-|DNL| bin edges in LSB: premium / standard / marginal.
DEFAULT_BIN_EDGES_LSB = (0.25, 0.5)

#: Screening methods a line can mount as its first station.
SCREENING_METHODS = ("bist", "histogram", "dynamic")


@dataclass
class StationStats:
    """Yield and throughput bookkeeping of one station for one lot."""

    name: str
    n_in: int
    n_accepted: int
    tester_seconds: float
    #: Devices whose insertion time is actually included in
    #: ``tester_seconds``.  ``None`` (every fixed station) means all of
    #: ``n_in`` — the historical uniform-insertion assumption.  Adaptive
    #: stations set it explicitly: a sequential station's aborted-wafer
    #: tail enters the queue (``n_in``) but is never inserted, so costing
    #: throughput on ``n_in`` would overstate it.
    n_accounted: Optional[int] = None

    @property
    def accounted(self) -> int:
        """Devices that actually consumed the station's tester time."""
        return self.n_in if self.n_accounted is None else self.n_accounted

    @property
    def n_rejected(self) -> int:
        """Devices the station rejected."""
        return self.n_in - self.n_accepted

    @property
    def yield_fraction(self) -> float:
        """Fraction of entering devices the station accepted."""
        return self.n_accepted / self.n_in if self.n_in else 1.0

    @property
    def devices_per_hour(self) -> float:
        """Station throughput in devices per tester-hour.

        Uses the *accounted* devices (those whose insertions are in
        ``tester_seconds``), so adaptive stations with variable
        per-device time report the throughput of the work actually done.
        """
        if self.tester_seconds <= 0.0:
            return float("inf")
        return self.accounted / self.tester_seconds * 3600.0


@dataclass
class LotScreeningReport:
    """Everything the line learned about one lot.

    The truth-referenced error rates (type I/II) are available because the
    simulated wafers expose their true transfer curves; a real tester floor
    would only see the accept counts and bins.
    """

    lot_id: str
    n_devices: int
    n_accepted: int
    n_recovered: int
    bin_counts: Dict[str, int]
    stations: List[StationStats]
    tester_seconds: float
    cost_per_device: float
    p_good: float
    type_i: float
    type_ii: float
    samples_per_device: int
    wall_seconds: float = field(default=0.0)
    #: Screening method of the first station ("bist", "histogram",
    #: "dynamic").
    method: str = field(default="bist")
    #: Test scenario the lot was screened under.
    mode: str = field(default="full")
    q: int = field(default=1)
    architecture: str = field(default="flash")
    #: Chip-level outcome when the line screens multi-converter ICs
    #: (``None`` when devices_per_ic is 1).
    n_chips: Optional[int] = field(default=None)
    n_chips_passed: Optional[int] = field(default=None)
    #: Test flow of the first station (``"fixed"`` or ``"sprt"``).
    flow: str = field(default="fixed")
    #: Code observations the sequential flow avoided versus the fixed
    #: full-record schedule (0 for the fixed flow).
    saved_samples: int = field(default=0)
    #: Tester-seconds the sequential flow saved versus the fixed
    #: schedule of the same insertions (0.0 for the fixed flow).
    saved_tester_seconds: float = field(default=0.0)
    #: Devices never inserted because the SPC monitor aborted their
    #: wafer mid-stream (they count as rejected, at zero tester time).
    n_aborted: int = field(default=0)
    #: Wafers aborted by an SPC excursion signal.
    excursions: int = field(default=0)

    @property
    def scenario(self) -> str:
        """Human-readable (architecture, method/mode) tag of the run."""
        if self.method != "bist":
            return f"{self.architecture}/{self.method}"
        if self.mode == "partial":
            return f"{self.architecture}/partial q={self.q}"
        return f"{self.architecture}/full"

    @property
    def chip_yield(self) -> Optional[float]:
        """Fraction of whole ICs passing (``None`` without chip grouping)."""
        if self.n_chips is None or self.n_chips == 0:
            return None
        return self.n_chips_passed / self.n_chips

    @property
    def n_rejected(self) -> int:
        """Dies finally rejected."""
        return self.n_devices - self.n_accepted

    @property
    def accept_fraction(self) -> float:
        """Final accept fraction of the lot."""
        return self.n_accepted / self.n_devices if self.n_devices else 0.0

    @property
    def devices_per_hour(self) -> float:
        """Lot throughput in devices per tester-hour."""
        if self.tester_seconds <= 0.0:
            return float("inf")
        return self.n_devices / self.tester_seconds * 3600.0

    @property
    def simulated_devices_per_second(self) -> float:
        """Simulation (wall-clock) throughput of the batched engine."""
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.n_devices / self.wall_seconds


class ScreeningLine:
    """A production screening line built from one scenario.

    Parameters
    ----------
    scenario:
        The :class:`~repro.campaign.scenario.Scenario` the line screens
        under.  Its measurement fields (method, ``q``, resolution,
        specification, counter, noise, deglitch) build the first
        station's engine; ``retest_attempts``, ``bin_edges_lsb``,
        ``devices_per_ic``, ``tester`` and ``flow`` configure the other
        stations; ``seed`` is the acquisition-noise fallback of
        :meth:`screen_lot`.  Its geometry fields describe the lot the
        scenario draws; the line screens whatever lot it is handed.

        The bin edges separate the quality bins of accepted dies: ``n``
        edges produce ``n + 1`` bins named ``bin-1`` (tightest) to
        ``bin-n+1``, graded on the measured |DNL| in LSB for the BIST and
        histogram methods and on the effective-bit shortfall
        ``n_bits - ENOB`` for the dynamic method.  Under ``flow="sprt"``
        the first station is the adaptive sequential flow of
        :mod:`repro.flows`: a curtailed station that keeps the full
        BIST's verdicts and stops each device at its first failing code,
        plus a wafer-level SPC monitor that aborts an excursed wafer's
        remaining shards.
    """

    def __init__(self, scenario: Scenario) -> None:
        # Imported here, not at module scope: the campaign package imports
        # this module (Campaign drives ScreeningLine), so the factory hop
        # must not create an import cycle.
        from repro.campaign.factory import default_tester, make_engine
        from repro.campaign.scenario import AUTO_Q

        if scenario.q == AUTO_Q:
            raise ValueError(
                "a screening line needs a concrete q for its tester "
                "economics; q='auto' scenarios resolve q per stimulus and "
                "only drive engine-level runs (make_engine)")
        self.scenario = scenario
        self.config: BistConfig = scenario.bist_config()
        self.engine: Union[BatchBistEngine, BatchPartialBistEngine,
                           BatchHistogramTest, BatchDynamicSuite]
        self.engine = make_engine(scenario)
        self.tester: TesterModel = default_tester(scenario)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "ScreeningLine":
        """The line a scenario describes: ``ScreeningLine(scenario)``."""
        return cls(scenario)

    @property
    def q(self) -> int:
        """Number of LSBs the tester captures per sample.

        1 for the full BIST (the pass/fail flag channel), the scenario's
        ``q`` for the partial scheme, and the full word width for the
        conventional histogram and dynamic methods.
        """
        if self.scenario.method != "bist":
            return int(self.scenario.n_bits)
        return 1 if self.scenario.q is None else int(self.scenario.q)

    def describe(self) -> str:
        """One-line description of the screening station's configuration."""
        method = self.scenario.method
        if method == "histogram":
            return (f"conventional histogram test, "
                    f"{self.engine.samples_per_code:g} samples/code, "
                    f"DNL spec ±{self.config.dnl_spec_lsb} LSB")
        if method == "dynamic":
            spec = self.engine.resolved_spec(self.config.n_bits)
            limits = []
            if spec.min_enob is not None:
                limits.append(f"ENOB >= {spec.min_enob:g}")
            if spec.min_sinad_db is not None:
                limits.append(f"SINAD >= {spec.min_sinad_db:g} dB")
            if spec.min_snr_db is not None:
                limits.append(f"SNR >= {spec.min_snr_db:g} dB")
            if spec.max_thd_db is not None:
                limits.append(f"THD <= {spec.max_thd_db:g} dB")
            if spec.min_sfdr_db is not None:
                limits.append(f"SFDR >= {spec.min_sfdr_db:g} dB")
            return (f"dynamic FFT suite, "
                    f"{self.engine.analyzer.n_samples}-sample "
                    f"{self.engine.analyzer.window} window, "
                    + ", ".join(limits))
        if self.scenario.q is None:
            return f"full BIST, {self.engine.limits.describe()}"
        return (f"partial BIST, q={self.q} LSBs off-chip, "
                f"DNL spec ±{self.config.dnl_spec_lsb} LSB")

    # ------------------------------------------------------------------ #
    # Station helpers
    # ------------------------------------------------------------------ #

    def bin_names(self) -> List[str]:
        """Names of the quality bins, tightest first."""
        edges = self.scenario.bin_edges_lsb
        return [f"bin-{i + 1}" for i in range(len(edges) + 1)]

    def _insertion_seconds(self, n_devices: int, samples: int,
                           sample_rate: float) -> float:
        """Tester time to push ``n_devices`` through one insertion."""
        if n_devices == 0:
            return 0.0
        # A full-BIST insertion occupies one channel per device (the
        # pass/fail flag); the partial scheme keeps q LSBs observable and
        # the conventional methods capture the full output word.
        schedule = ParallelTestSchedule(
            n_converters=n_devices,
            bits_per_converter=self.q,
            tester_channels=self.tester.digital_channels,
            time_per_pass_s=samples / sample_rate)
        return schedule.total_time_s

    def _bin_metric(self, result) -> np.ndarray:
        """Quality-grading metric of a screening result, one per device.

        Measured |DNL| in LSB for the BIST and histogram methods, the
        effective-bit shortfall for the dynamic suite (which measures no
        DNL at all).
        """
        if self.scenario.method == "dynamic":
            return result.enob_shortfall_lsb
        return result.measured_max_dnl_lsb

    def test_plan(self, n_bits: int, samples: int,
                   sample_rate: float) -> TestPlan:
        """The per-device test plan pricing this line's insertions."""
        samples = max(samples, 1)
        method = self.scenario.method
        if method == "histogram":
            return TestPlan.conventional_histogram(
                n_bits=n_bits, samples=samples, sample_rate=sample_rate)
        if method == "dynamic":
            return TestPlan.dynamic_fft(
                n_bits=n_bits, samples=samples, sample_rate=sample_rate)
        if self.scenario.q is None:
            return TestPlan.full_bist(n_bits=n_bits, samples=samples,
                                      sample_rate=sample_rate)
        return TestPlan.partial_bist(n_bits=n_bits, q=self.q,
                                     samples=samples,
                                     sample_rate=sample_rate)

    # ------------------------------------------------------------------ #
    # Lot processing
    # ------------------------------------------------------------------ #

    def screen_lot(self, lot: Union[Lot, Wafer], rng: NoiseSeed = None,
                   plan: Optional[ExecutionPlan] = None
                   ) -> LotScreeningReport:
        """Run a lot (or a single wafer) through the whole line.

        Returns the lot's report; a floor ledger is a
        :class:`~repro.production.store.ResultStore` of such reports.

        Parameters
        ----------
        lot:
            The lot to screen; a bare wafer is treated as a one-wafer lot.
        rng:
            Seed of the acquisition noise of all stations (an integer, a
            :class:`~numpy.random.SeedSequence`, or ``None`` for the
            scenario's ``seed``).  Insertion ``i`` (first pass, then
            each retest) of wafer ``w`` runs under ``SeedSequence(seed,
            spawn_key=(w, i))``, and each device of an insertion draws
            its own keyed stream from that, so the report is
            byte-identical for any plan.
        plan:
            The :class:`~repro.production.execution.ExecutionPlan` every
            station's engine runs under (``None``: ``ExecutionPlan()``).
            Under ``flow="sprt"`` its ``shard_devices`` is also the SPC
            monitor's subgroup size.
        """
        if isinstance(lot, Wafer):
            lot = Lot([lot], lot_id=lot.wafer_id)
        spec = lot.spec
        scenario = self.scenario
        method = scenario.method
        devices_per_ic = scenario.devices_per_ic
        if plan is None:
            plan = ExecutionPlan()
        root = noise_seed(scenario.seed if rng is None else rng)
        if not isinstance(root, np.random.SeedSequence):
            root = np.random.SeedSequence(root)

        def insertion_seed(w_index: int, insertion: int):
            return np.random.SeedSequence(
                root.entropy, spawn_key=root.spawn_key + (w_index, insertion))

        t = current_telemetry()
        t0 = time.perf_counter()
        accepted_masks: List[np.ndarray] = []
        measured: List[np.ndarray] = []
        truly_good: List[np.ndarray] = []
        first_pass_in = 0
        first_pass_ok = 0
        retest_in = 0
        retest_ok = 0
        samples_per_device = 0
        n_chips = 0
        n_chips_passed = 0
        chips_whole = devices_per_ic > 1
        # Adaptive (sequential) flow bookkeeping.  The paper's
        # closed-form per-code model of the scenario centres the SPC
        # monitor's p-chart.
        sprt = scenario.flow == "sprt"
        per_code = None
        if sprt:
            from repro.campaign.factory import per_code_model
            from repro.flows.excursions import excursion_perturbs
            from repro.flows.sequential import sprt_decide
            from repro.flows.spc import monitor_for_model
            per_code = per_code_model(scenario)
        accounted_in = 0
        total_stop_codes = 0
        total_codes = 0
        stopped_early = 0
        stop_quartiles = np.zeros(4, dtype=np.int64)
        n_aborted = 0
        excursions_detected = 0
        excursions_missed = 0
        if chips_whole:
            # Chips never straddle wafers; pricing insertions per IC while
            # silently skipping chip yield would misreport the economics,
            # so a non-dividing wafer is an error (as in chip_grouping).
            for wafer in lot:
                if len(wafer) % devices_per_ic != 0:
                    raise ValueError(
                        f"wafer {wafer.wafer_id} has {len(wafer)} dies, "
                        f"which do not fill whole ICs of "
                        f"{devices_per_ic} converters")

        with t.span("line.screen_lot", lot=lot.lot_id, method=method,
                    wafers=len(lot)):
            for w_index, wafer in enumerate(lot):
                n_wafer = len(wafer)
                monitor = None
                if sprt:
                    # Wafer-level SPC rides on the shard stream: the
                    # monitor observes shard results in absolute shard
                    # order (independent of workers and chunking) and
                    # aborts the wafer on an excursion.
                    monitor = monitor_for_model(
                        per_code, spec.n_inner_codes, plan.shard_devices,
                        wafer_id=wafer.wafer_id)
                wafer_aborted = False
                devices_done = n_wafer
                try:
                    with spc_scope(monitor):
                        result = self.engine.run_wafer(
                            wafer, rng=insertion_seed(w_index, 0),
                            plan=plan)
                except ExcursionAbort as exc:
                    wafer_aborted = True
                    excursions_detected += 1
                    result = exc.partial
                    devices_done = int(exc.devices_done)
                    n_aborted += n_wafer - devices_done
                    _log.info(
                        "wafer %s aborted at shard %d (%s %.4g > %.4g): "
                        "%d of %d devices dispositioned, tail rejected",
                        wafer.wafer_id, exc.shard, exc.statistic,
                        exc.value, exc.threshold, devices_done, n_wafer)
                if (monitor is not None and not wafer_aborted
                        and excursion_perturbs(scenario.excursion, w_index,
                                               n_wafer)):
                    excursions_missed += 1

                # Disposition: the tested prefix takes its measured
                # verdict (all devices for a clean wafer); an aborted
                # wafer's untested tail is rejected at zero tester time.
                accepted = np.zeros(n_wafer, dtype=bool)
                measured_dnl = np.full(n_wafer, np.inf)
                if result is not None:
                    samples_per_device = result.samples_taken
                    accepted[:devices_done] = result.passed
                    measured_dnl[:devices_done] = np.asarray(
                        self._bin_metric(result), dtype=float)

                if sprt and result is not None and devices_done > 0:
                    # Sequential station: each tested device keeps the
                    # engine's verdict and is priced up to its stop, its
                    # first failing code or the end of the record.
                    decision = sprt_decide(result.stop_codes,
                                           spec.n_inner_codes)
                    total_stop_codes += decision.observed_codes
                    total_codes += decision.total_codes
                    stopped_early += decision.n_stopped_early
                    stop_quartiles += decision.stop_quartiles()

                first_pass_in += n_wafer
                accounted_in += devices_done
                first_pass_ok += int(
                    np.count_nonzero(accepted[:devices_done]))

                for attempt in range(scenario.retest_attempts):
                    if wafer_aborted:
                        # An excursed wafer is dispositioned, not
                        # retested: its untested tail has no measurement
                        # to recover from.
                        break
                    rejected = np.nonzero(~accepted)[0]
                    if rejected.size == 0:
                        break
                    retest_in += int(rejected.size)
                    retest = self.engine.run_transitions(
                        wafer.transitions[rejected],
                        full_scale=spec.full_scale,
                        sample_rate=spec.sample_rate,
                        rng=insertion_seed(w_index, 1 + attempt),
                        plan=plan)
                    recovered = rejected[retest.passed]
                    retest_ok += int(recovered.size)
                    accepted[recovered] = True
                    measured_dnl[recovered] = \
                        self._bin_metric(retest)[retest.passed]

                accepted_masks.append(accepted)
                measured.append(measured_dnl)
                truly_good.append(wafer.good_mask(self.config.dnl_spec_lsb,
                                                  self.config.inl_spec_lsb))
                if chips_whole:
                    # Chips are assembled from consecutive dies of one
                    # wafer; an IC ships only when every converter on it
                    # passed.
                    chip_passed, _ = chip_grouping(accepted, devices_per_ic)
                    n_chips += int(chip_passed.size)
                    n_chips_passed += int(np.count_nonzero(chip_passed))
        wall_seconds = time.perf_counter() - t0

        accepted_all = np.concatenate(accepted_masks)
        measured_all = np.concatenate(measured)
        good_all = np.concatenate(truly_good)
        n_devices = accepted_all.size
        n_accepted = int(np.count_nonzero(accepted_all))
        # Score the final decisions against the truth with the shared
        # Monte-Carlo result type, so the line reports the same joint
        # (Table 1) error-rate convention as every other population run.
        outcome = PopulationBistResult(n_devices=n_devices,
                                       accepted=accepted_all,
                                       truly_good=good_all)

        # Binning station: grade accepted dies on the measured linearity.
        bins = np.digitize(measured_all[accepted_all],
                           scenario.bin_edges_lsb)
        names = self.bin_names()
        bin_counts = {name: int(np.count_nonzero(bins == i))
                      for i, name in enumerate(names)}

        # Tester-floor economics.  Only devices that actually reached the
        # tester (the accounted prefix of each wafer) consume insertion
        # time; under the sequential flow the first station then scales
        # that fixed-count time by the fraction of per-code observations
        # taken before each device stopped.
        fixed_seconds = self._insertion_seconds(
            accounted_in, samples_per_device, spec.sample_rate)
        if sprt and total_codes:
            adaptive_seconds = fixed_seconds * (total_stop_codes
                                                / total_codes)
        else:
            adaptive_seconds = fixed_seconds
        saved_seconds = fixed_seconds - adaptive_seconds
        bist_seconds = adaptive_seconds if sprt else fixed_seconds
        retest_seconds = self._insertion_seconds(
            retest_in, samples_per_device, spec.sample_rate)
        if sprt:
            first_station = StationStats(
                "sequential", first_pass_in, first_pass_ok,
                adaptive_seconds, n_accounted=accounted_in)
        else:
            first_station = StationStats(method, first_pass_in,
                                         first_pass_ok, bist_seconds)
        stations = [first_station]
        if scenario.retest_attempts > 0:
            stations.append(StationStats("retest", retest_in, retest_ok,
                                         retest_seconds))
        stations.append(StationStats("binning", n_accepted, n_accepted, 0.0))

        cost_plan = self.test_plan(spec.n_bits, samples_per_device,
                                   spec.sample_rate)
        cost = cost_per_device(cost_plan, self.tester,
                               devices_per_ic=devices_per_ic)

        if t.enabled:
            # Pass/fail/escape tallies per station, tied to the tester
            # economics.  All values derive from screening decisions, so
            # the counter block is invariant under the execution plan.
            t.count("line.lots")
            t.count("line.devices", n_devices)
            t.count("line.accepted", n_accepted)
            t.count("line.escapes",
                    int(np.count_nonzero(accepted_all & ~good_all)))
            t.count("line.yield_loss",
                    int(np.count_nonzero(~accepted_all & good_all)))
            for station in stations:
                t.count(f"line.station.{station.name}.in", station.n_in)
                t.count(f"line.station.{station.name}.accepted",
                        station.n_accepted)
                t.count(f"line.station.{station.name}.rejected",
                        station.n_in - station.n_accepted)
            t.record_timer("line.tester_seconds",
                           bist_seconds + retest_seconds)
            if sprt:
                # Adaptive-flow economics; see repro.telemetry.metrics
                # for the flow.* key glossary.
                t.count("flow.saved_samples",
                        total_codes - total_stop_codes)
                t.count("flow.devices_stopped_early", stopped_early)
                t.count("flow.excursions_detected", excursions_detected)
                t.count("flow.excursions_missed", excursions_missed)
                t.count("flow.aborted_devices", n_aborted)
                for i in range(4):
                    t.count(f"flow.stop_quartile.q{i + 1}",
                            int(stop_quartiles[i]))
        _log.info("lot %s [%s]: %d/%d accepted, %.3f tester-s, "
                  "%.3f s wall", lot.lot_id, method, n_accepted,
                  n_devices, bist_seconds + retest_seconds, wall_seconds)

        return LotScreeningReport(
            lot_id=lot.lot_id,
            n_devices=n_devices,
            n_accepted=n_accepted,
            n_recovered=retest_ok,
            bin_counts=bin_counts,
            stations=stations,
            tester_seconds=bist_seconds + retest_seconds,
            cost_per_device=cost,
            p_good=outcome.p_good,
            type_i=outcome.type_i,
            type_ii=outcome.type_ii,
            samples_per_device=samples_per_device,
            wall_seconds=wall_seconds,
            method=method,
            mode=scenario.mode,
            q=self.q,
            architecture=spec.architecture,
            n_chips=n_chips if chips_whole else None,
            n_chips_passed=n_chips_passed if chips_whole else None,
            flow=scenario.flow,
            saved_samples=(total_codes - total_stop_codes) if sprt else 0,
            saved_tester_seconds=saved_seconds if sprt else 0.0,
            n_aborted=n_aborted,
            excursions=excursions_detected)
