"""Metrics document and campaign pivot: schema, determinism, export."""

import json

from repro.campaign import Campaign, Scenario
from repro.production import ExecutionPlan
from repro.telemetry import (
    SCHEMA_VERSION,
    Telemetry,
    metrics_document,
    render_metrics,
    telemetry_session,
    write_metrics,
)


def _run_campaign(workers: int, chunk_size=None) -> Telemetry:
    base = Scenario(n_devices=64, transition_noise_lsb=0.05)
    campaign = Campaign(base.grid(method=["bist", "histogram"]), seed=7)
    with telemetry_session(Telemetry()) as t:
        campaign.run(plan=ExecutionPlan(workers=workers,
                                        chunk_size=chunk_size,
                                        shard_devices=16))
    return t


class TestMetricsDocument:
    def test_schema_and_shape(self):
        t = Telemetry()
        t.count("b", 2)
        t.count("a", 1)
        with t.timer("x"):
            pass
        with t.span("s"):
            pass
        doc = metrics_document(t, context={"command": "lot"})
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["context"] == {"command": "lot"}
        assert list(doc["counters"]) == ["a", "b"]  # sorted
        assert set(doc["timing"]) == {"timers", "gauges", "scheduling",
                                      "spans"}
        assert doc["timing"]["spans"][0]["name"] == "s"

    def test_pool_counters_route_to_timing_scheduling(self):
        """``pool.*`` counters describe how a run was scheduled, not what
        work was done — they must leave the deterministic top-level
        ``counters`` block and land under ``timing.scheduling``."""
        t = Telemetry()
        t.count("line.devices", 64)
        t.count("pool.workers_spawned", 2)
        t.count("pool.tasks_dispatched", 9)
        doc = metrics_document(t)
        assert doc["counters"] == {"line.devices": 64}
        assert doc["timing"]["scheduling"] == {
            "pool.tasks_dispatched": 9,
            "pool.workers_spawned": 2,
        }

    def test_gauges_land_under_timing(self):
        t = Telemetry()
        t.set_gauge("pool.queue_depth", 3)
        t.set_gauge("pool.queue_depth", 7)
        t.set_gauge("pool.queue_depth", 2)
        doc = metrics_document(t)
        assert doc["counters"] == {}
        assert doc["timing"]["gauges"]["pool.queue_depth"] == {
            "last": 2.0, "max": 7.0}

    def test_render_is_deterministic(self):
        t = Telemetry()
        t.count("z")
        t.count("a")
        text = render_metrics(metrics_document(t))
        assert text == render_metrics(metrics_document(t))
        assert text.index('"a"') < text.index('"z"')
        json.loads(text)  # valid JSON

    def test_non_timing_blocks_identical_across_worker_counts(self):
        """The CI metrics-smoke contract at the library level: counters
        and context are invariant under the execution geometry (workers
        and chunk size); only the timing block may differ."""
        d1 = metrics_document(_run_campaign(1), context={"seed": 7})
        d2 = metrics_document(_run_campaign(2, chunk_size=5),
                              context={"seed": 7})
        d1.pop("timing")
        d2.pop("timing")
        assert render_metrics(d1) == render_metrics(d2)
        assert d1["counters"]["campaign.scenarios"] == 2
        assert d1["counters"]["line.devices"] == 128
        # The stream path's event density: some, but far fewer code
        # changes than samples at 0.05 LSB of noise.
        events = d1["counters"]["engine.bist.stream_events"]
        assert 0 < events < d1["counters"]["engine.bist.samples"] / 4

    def test_write_metrics_file(self, tmp_path):
        t = Telemetry()
        t.count("devices", 3)
        path = tmp_path / "metrics.json"
        write_metrics(str(path), t, context={"command": "campaign"})
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["counters"] == {"devices": 3}


class TestMetricsTable:
    def test_pivot_from_campaign_run(self):
        base = Scenario(n_devices=60)
        campaign = Campaign(base.grid(q=[None, 2]), seed=5)
        result = campaign.run()
        table = result.metrics_table()
        assert table == result.store.metrics_table()
        assert "Campaign metrics per scenario" in table
        # One row per scenario, in scenario order: title, header, rule.
        rows = table.splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["flash/full",
                                                    "flash/partial"]
        assert "flash/partial q=2" in rows[1]
        for row in rows:
            lots, devices = row.split()[-9:-7]
            assert (lots, devices) == ("1", "60")

    def test_empty_report(self):
        from repro.campaign.driver import CampaignResult

        bare = CampaignResult(scenarios=[], labels=[], seeds=[], reports=[])
        assert bare.metrics_table() == ""
