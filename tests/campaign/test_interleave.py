"""Cross-scenario interleaving invariance suite.

The campaign driver's headline invariant, extended across *scenarios*:
a multi-scenario campaign whose shards are interleaved into one
persistent worker pool is byte-identical — reports, merged ledger,
rendered tables — to the sequential per-scenario execution, for every
``(workers, chunk_size, shard_devices)`` geometry, including noisy
draws, chip-aligned shards (``devices_per_ic``) and shared-wafer mode.
Interleaving must be pure scheduling; these tests are the proof the CI
``pool-smoke`` job re-runs.
"""

import pytest

from repro.campaign import Campaign, Scenario
from repro.production import ExecutionPlan
from repro.production.pool import close_default_pool, shared_pool
from repro.telemetry import Telemetry, metrics_document, telemetry_session

#: (workers, chunk_size) geometries the campaign grid sweeps against the
#: sequential ``workers=1`` reference, at each shard size.  The shard
#: size is held fixed within a comparison: per-shard-index seed spawning
#: makes noisy results a function of the shard *boundaries* (that is the
#: determinism contract), while workers and chunk size are pure
#: scheduling and must never matter.
WORKER_GRID = [(2, None), (2, 23), (4, None)]
SHARD_SIZES = [64, 31]


def _scenarios():
    """Two deliberately different scenarios: a noisy full BIST (stream
    path, per-shard seed spawning) and the conventional histogram."""
    return [
        Scenario(architecture="flash", method="bist", n_bits=6, q=2,
                 n_devices=240, transition_noise_lsb=0.05),
        Scenario(architecture="flash", method="histogram", n_bits=6,
                 n_devices=240),
    ]


def _digest(result) -> str:
    """Everything observable about a campaign run, as one string."""
    rows = []
    for report in result.reports:
        rows.append((report.n_devices, report.n_accepted, report.type_i,
                     report.type_ii, report.tester_seconds,
                     tuple(report.bin_counts)))
    return "\n".join([
        repr(rows),
        repr(result.seeds),
        result.store.campaign_table(),
        result.store.lot_table(),
        result.to_json(),
    ])


@pytest.fixture(autouse=True)
def _close_pool():
    yield
    close_default_pool()


class TestInterleavedCampaignInvariance:
    @pytest.mark.parametrize("shard", SHARD_SIZES)
    def test_grid_matches_sequential_reference(self, shard):
        scenarios = _scenarios()
        reference = _digest(Campaign(scenarios, seed=7).run(
            plan=ExecutionPlan(workers=1, shard_devices=shard)))
        for workers, chunk in WORKER_GRID:
            candidate = _digest(Campaign(scenarios, seed=7).run(
                plan=ExecutionPlan(workers=workers, chunk_size=chunk,
                                   shard_devices=shard)))
            assert candidate == reference, (workers, chunk, shard)

    def test_cold_pool_matches_interleaved(self):
        scenarios = _scenarios()
        plan = ExecutionPlan(workers=2, shard_devices=64)
        warm = _digest(Campaign(scenarios, seed=7).run(plan=plan))
        with shared_pool(workers=2):
            cold = _digest(Campaign(scenarios, seed=7).run(plan=plan))
        assert warm == cold

    def test_chip_aligned_scenarios(self):
        """Chip-mode scenarios shard on IC boundaries; interleaving must
        respect the alignment and stay byte-identical."""
        scenarios = [
            Scenario(architecture="flash", method="bist", n_bits=6, q=2,
                     n_devices=240, devices_per_ic=4,
                     transition_noise_lsb=0.05),
            Scenario(architecture="flash", method="bist", n_bits=6, q=4,
                     n_devices=240, devices_per_ic=4,
                     transition_noise_lsb=0.05),
        ]
        reference = _digest(Campaign(scenarios, seed=11).run(
            plan=ExecutionPlan(workers=1, shard_devices=64)))
        for workers in (2, 4):
            candidate = _digest(Campaign(scenarios, seed=11).run(
                plan=ExecutionPlan(workers=workers, shard_devices=64)))
            assert candidate == reference, workers

    def test_shared_wafer_campaign(self):
        """Shared-wafer mode re-homes the one wafer into shared memory
        for the interleaved run; results must not notice."""
        scenarios = [
            Scenario(architecture="flash", method="bist", n_bits=6, q=2,
                     n_devices=240, transition_noise_lsb=0.05),
            Scenario(architecture="flash", method="bist", n_bits=6, q=4,
                     n_devices=240, transition_noise_lsb=0.05),
        ]
        reference = _digest(Campaign(scenarios, seed=7,
                                     shared_wafer=True).run(
            plan=ExecutionPlan(workers=1, shard_devices=64)))
        for workers, chunk in WORKER_GRID:
            candidate = _digest(Campaign(scenarios, seed=7,
                                         shared_wafer=True).run(
                plan=ExecutionPlan(workers=workers, chunk_size=chunk,
                                   shard_devices=64)))
            assert candidate == reference, (workers, chunk)


def _flow_scenarios():
    """Adaptive-flow grid: every excursion under the SPRT flow plus the
    fixed-flow clean reference — the tentpole's determinism surface."""
    base = Scenario(architecture="flash", method="bist", n_bits=6,
                    n_devices=240, n_wafers=2)
    return (base.grid(flow=["fixed", "sprt"],
                      excursion=[None, "drift", "spatial", "burst"]))


class TestAdaptiveFlowInvariance:
    """Excursed populations and SPRT/SPC decisions are drawn and decided
    in the parent, so the whole adaptive grid — including mid-wafer
    aborts — must stay byte-identical across every scheduling geometry
    and across a warm pool."""

    def test_flow_grid_matches_sequential_reference(self):
        scenarios = _flow_scenarios()
        reference = _digest(Campaign(scenarios, seed=13).run(
            plan=ExecutionPlan(workers=1, shard_devices=64)))
        for workers, chunk in WORKER_GRID:
            candidate = _digest(Campaign(scenarios, seed=13).run(
                plan=ExecutionPlan(workers=workers, chunk_size=chunk,
                                   shard_devices=64)))
            assert candidate == reference, (workers, chunk)

    def test_flow_grid_warm_pool_matches_cold(self):
        scenarios = _flow_scenarios()
        plan = ExecutionPlan(workers=2, shard_devices=64)
        cold = _digest(Campaign(scenarios, seed=13).run(plan=plan))
        # The pool is still warm from the first run; results must not
        # notice the reused workers.
        warm = _digest(Campaign(scenarios, seed=13).run(plan=plan))
        assert warm == cold

    def test_excursed_draws_byte_identical_across_geometry(self):
        # The generators run at draw time in the parent; the execution
        # plan must not even be able to influence the population bytes.
        scenario = Scenario(architecture="flash", method="bist", n_bits=6,
                            n_devices=240, n_wafers=3, seed=13,
                            excursion="spatial")
        reference = [w.transitions.tobytes()
                     for w in scenario.draw_lot()]
        again = [w.transitions.tobytes() for w in scenario.draw_lot()]
        assert again == reference

    def test_flow_counters_identical_outside_timing(self):
        def document(workers):
            with telemetry_session(Telemetry()) as t:
                Campaign(_flow_scenarios(), seed=13).run(
                    plan=ExecutionPlan(workers=workers, shard_devices=64))
            return metrics_document(t)

        serial = document(1)
        interleaved = document(2)
        assert serial["counters"] == interleaved["counters"]
        assert any(name.startswith("flow.")
                   for name in serial["counters"])


class TestInterleaveTelemetry:
    def _document(self, workers: int):
        with telemetry_session(Telemetry()) as t:
            Campaign(_scenarios(), seed=7).run(
                plan=ExecutionPlan(workers=workers, shard_devices=64))
        return metrics_document(t)

    def test_counters_identical_outside_timing(self):
        serial = self._document(1)
        interleaved = self._document(2)
        assert serial["counters"] == interleaved["counters"]
        assert serial["schema"] == interleaved["schema"]

    def test_interleaved_run_span_and_scheduling_counters(self):
        doc = self._document(2)
        runs = [s for s in doc["timing"]["spans"]
                if s["name"] == "campaign.run"]
        assert len(runs) == 1
        assert runs[0]["attrs"]["interleaved"] is True
        scenario_spans = [s for s in doc["timing"]["spans"]
                         if s["name"] == "campaign.scenario"]
        assert len(scenario_spans) == 2
        # Scenario threads re-parent under the campaign.run span.
        assert all(s["parent_id"] == runs[0]["span_id"]
                   for s in scenario_spans)
        assert doc["timing"]["scheduling"]["pool.tasks_dispatched"] > 0
        assert "pool.queue_depth" in doc["timing"]["gauges"]

    def test_sequential_run_span_is_not_interleaved(self):
        doc = self._document(1)
        runs = [s for s in doc["timing"]["spans"]
                if s["name"] == "campaign.run"]
        assert runs[0]["attrs"]["interleaved"] is False
