"""The two Monte-Carlo lot workloads: ``event_lot`` and ``noisy_lot``.

Both screen one seeded lot through ``ScreeningLine.screen_lot`` under an
explicit serial ``ExecutionPlan``, repeatedly, for the run's duration.
A "request" of these workloads is one ``screen_lot`` call; a "resume"
re-screens the lot with a shard journal that already holds every shard
(the same journal protocol ``repro serve --resume`` replays).  Every
end-to-end metric is reported on every workload, so the lots report
request and resume rates too: one replay follows each timed screening.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from common import (AcceptTap, RunLedger, mask_digest, median, peak_rss_mib,
                    percentile90, split_seeds)
from repro.campaign import Scenario
from repro.core import BistEngine
from repro.production import ExecutionPlan, ScreeningLine
from repro.production.execution import journal_scope
from repro.production.pool import close_default_pool
from repro.serve.checkpoint import RequestJournal

#: Serial plan every timed screening runs under.
PLAN = ExecutionPlan(workers=1)

#: Second plan geometry for the noisy invariance check: other workers and
#: chunk size, same shard size (shard size keys the noise by design).
CHECK_PLAN = ExecutionPlan(workers=2, chunk_size=97)

#: Scenario, dies per wafer and ``--tiny`` dies per wafer.
LOTS: Dict[str, Tuple[Dict, int, int]] = {
    "event_lot": (dict(architecture="flash", n_bits=6, n_wafers=4),
                  65536, 1024),
    "noisy_lot": (dict(architecture="flash", n_bits=6, n_wafers=2,
                       transition_noise_lsb=0.05, deglitch_depth=3,
                       retest_attempts=1),
                  1024, 256),
}

MIN_REPS = 3
SCALAR_SUBSAMPLE = 256


def _fingerprint(report) -> str:
    """The report minus its wall-clock field (deterministic part)."""
    return repr(dataclasses.replace(report, wall_seconds=0.0))


def _timed(fn: Callable) -> Tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _setup(scenario: Scenario, seed: int, lot_id: str):
    """Draw the lot and build the line, several times; median time.

    The previous lot is dropped before the next draw so peak memory
    holds one lot.
    """
    times: List[float] = []
    lot = line = None
    while len(times) < 3 or (sum(times) < 1.0 and len(times) < 200):
        lot = line = None
        start = time.perf_counter()
        lot = scenario.draw_lot(seed=seed, lot_id=lot_id)
        line = ScreeningLine.from_scenario(scenario)
        times.append(time.perf_counter() - start)
    return median(times), lot, line


class LotRun:
    """One invocation of a lot workload."""

    def __init__(self, name: str, seed: int, tiny: bool,
                 ledger: RunLedger, tap: AcceptTap) -> None:
        kwargs, dies, tiny_dies = LOTS[name]
        draw_seed, noise_seed = split_seeds(seed, 2)
        self.name = name
        self.scenario = Scenario(n_devices=tiny_dies if tiny else dies,
                                 **kwargs)
        self.draw_seed = draw_seed
        self.noise_seed = noise_seed
        self.ledger = ledger
        self.tap = tap
        self.lot_id = f"{name}-{seed}"
        self.setup_s, self.lot, self.line = _setup(
            self.scenario, draw_seed, self.lot_id)

    def screen(self, plan: ExecutionPlan = PLAN):
        return self.line.screen_lot(self.lot, rng=self.noise_seed,
                                    plan=plan)

    def repeat(self, seconds: float, count: int = 0, replay: bool = False):
        """Screen repeatedly for ``seconds`` (or exactly ``count`` times).

        A timed run starts with one untimed warm-up screening, which also
        records a full shard journal.  With ``replay``, each timed
        screening is followed by one replay of the lot from that journal,
        so the replays sample the same stretch of time as the screenings.
        Returns the screening latencies, the replay latencies, and the
        reports and accept masks of every screening, warm-up included.
        """
        latencies, replays, reports, masks = [], [], [], []
        journal = RequestJournal(None, 0)
        if not count:
            with self.ledger.operation("screen_lot warm-up"), \
                    journal_scope(journal):
                reports.append(self.screen())
                masks.append(self.tap.take()[self.lot_id])
        deadline = time.perf_counter() + seconds
        replayed = set()
        attempts = 0
        while (attempts < count if count
               else attempts < MIN_REPS or time.perf_counter() < deadline):
            attempts += 1
            with self.ledger.operation("screen_lot"):
                elapsed, report = _timed(self.screen)
                latencies.append(elapsed)
                reports.append(report)
                masks.append(self.tap.take()[self.lot_id])
            if replay:
                with self.ledger.operation("journal replay"):
                    journal.begin_attempt()
                    with journal_scope(journal):
                        elapsed, replayed_report = _timed(self.screen)
                    replays.append(elapsed)
                    replayed.add(_fingerprint(replayed_report))
        if replay:
            self.tap.take()
            self.ledger.check(f"{self.name}.resume_equals_live",
                              replayed == {_fingerprint(reports[0])})
        return latencies, replays, reports, masks

    def check(self, reports, masks, corrupt: bool) -> str:
        """Output checks, outside the timed region; returns the digest."""
        ledger = self.ledger
        if not reports:
            ledger.check(f"{self.name}.screened", False)
            return ""
        mask = np.array(masks[0], copy=True)
        if corrupt:
            mask[0] = ~mask[0]
        digest = mask_digest([mask])
        ledger.check(f"{self.name}.repetitions_identical",
                     len({_fingerprint(r) for r in reports}) == 1
                     and len({mask_digest([m]) for m in masks}) == 1)
        if self.name == "event_lot":
            self._check_scalar(mask)
        else:
            self._check_geometry(reports[0], digest)
        return digest

    def _check_scalar(self, mask: np.ndarray) -> None:
        """Decisions on a fixed subsample equal the scalar engine's."""
        sizes = [len(w) for w in self.lot.wafers]
        picks = np.linspace(0, sum(sizes) - 1, SCALAR_SUBSAMPLE).astype(int)
        offsets = np.cumsum([0] + sizes[:-1])
        devices = []
        for index in picks:
            w = int(np.searchsorted(offsets, index, side="right") - 1)
            devices.append(self.lot.wafers[w].device(int(index - offsets[w])))
        with self.ledger.operation("scalar reference"):
            scalar = BistEngine(self.scenario.bist_config()).run_population(
                devices, rng=0)
            self.ledger.check(
                "event_lot.scalar_subsample",
                np.array_equal(np.asarray(scalar.accepted), mask[picks]))

    def _check_geometry(self, report, digest: str) -> None:
        """The report is byte-identical under a second plan geometry."""
        try:
            with self.ledger.operation("second geometry"):
                other = self.screen(CHECK_PLAN)
                other_mask = self.tap.take()[self.lot_id]
                self.ledger.check(
                    f"{self.name}.plan_geometry_invariant",
                    _fingerprint(other) == _fingerprint(report)
                    and mask_digest([other_mask]) == digest)
        finally:
            close_default_pool()


def run_untraced(name: str, seed: int, seconds: float, tiny: bool,
                 corrupt: bool, ledger: RunLedger, tap: AcceptTap):
    """The measured run: every end-to-end metric, tracing off."""
    run = LotRun(name, seed, tiny, ledger, tap)
    latencies, replays, reports, masks = run.repeat(seconds, replay=True)
    rss = peak_rss_mib()
    digest = run.check(reports, masks, corrupt)
    n_devices = run.lot.n_devices
    report = reports[0] if reports else None
    metrics = {
        "setup_s": run.setup_s,
        "devices_per_s": n_devices / median(latencies),
        "requests_per_s": 1.0 / median(latencies),
        "request_latency_p50_s": median(latencies),
        "request_latency_p90_s": percentile90(latencies),
        "resume_requests_per_s": 1.0 / median(replays),
        "peak_rss_mb": rss,
        "tester_s_per_device": (report.tester_seconds / report.n_devices
                                if report else float("nan")),
    }
    info = {"devices_per_lot": n_devices, "repetitions": len(latencies),
            "resume_repetitions": len(replays), "accept_digest": digest}
    return metrics, info


def run_traced(name: str, seed: int, seconds: float, tiny: bool,
               corrupt: bool, ledger: RunLedger, tap: AcceptTap, tracing):
    """One untraced pass, then the same screenings traced.

    ``tracing`` is a context manager factory that installs the layer
    wrappers and a telemetry session and yields the telemetry object.
    """
    run = LotRun(name, seed, tiny, ledger, tap)
    plain, _, reports, masks = run.repeat(seconds / 2.0)
    with tracing() as telemetry:
        # One traced draw so the lot layer has a row; not timed.
        run.scenario.draw_lot(seed=run.draw_seed, lot_id=run.lot_id)
        traced, _, traced_reports, traced_masks = run.repeat(0.0,
                                                             len(plain))
    # Traced and untraced screenings must agree, as every repetition must.
    digest = run.check(reports + traced_reports, masks + traced_masks,
                       corrupt)
    extra = {
        "trace_overhead_fraction": median(traced) / median(plain) - 1.0,
        "request_latency_samples": len(traced),
    }
    info = {"devices_per_lot": run.lot.n_devices,
            "repetitions": len(plain), "accept_digest": digest}
    return telemetry, extra, info
