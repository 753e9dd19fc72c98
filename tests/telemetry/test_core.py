"""Unit tests for the telemetry core: counters, timers, spans, sessions."""

import contextlib
import logging
import threading

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    SCHEMA_VERSION,
    GaugeStat,
    NullTelemetry,
    ShardProgress,
    Telemetry,
    TimerHandle,
    TimerStat,
    current_telemetry,
    get_logger,
    telemetry_session,
)


class TestCounters:
    def test_count_accumulates(self):
        t = Telemetry()
        t.count("a")
        t.count("a", 4)
        t.count("b", 2)
        assert t.counters == {"a": 5, "b": 2}

    def test_counts_are_ints(self):
        t = Telemetry()
        t.count("a", 2.0)
        assert isinstance(t.counters["a"], int)


class TestTimers:
    def test_timer_records_stats(self):
        t = Telemetry()
        with t.timer("x") as handle:
            pass
        with t.timer("x"):
            pass
        stat = t.timers["x"]
        assert stat.count == 2
        assert handle.elapsed_s >= 0.0
        assert stat.total_s >= stat.max_s >= stat.min_s >= 0.0
        assert stat.mean_s == pytest.approx(stat.total_s / 2)

    def test_timer_stat_merge(self):
        a = TimerStat()
        a.record(1.0)
        a.record(3.0)
        b = TimerStat()
        b.record(0.5)
        a.merge(b)
        assert a.count == 3
        assert a.total_s == pytest.approx(4.5)
        assert a.min_s == pytest.approx(0.5)
        assert a.max_s == pytest.approx(3.0)

    def test_timer_stat_round_trips_through_dict(self):
        a = TimerStat()
        a.record(2.0)
        b = TimerStat.from_dict(a.as_dict())
        assert b.count == 1 and b.total_s == pytest.approx(2.0)
        assert b.min_s == pytest.approx(2.0)

    def test_handle_measures_even_without_collector(self):
        # The CLI's devices/s line relies on this: a TimerHandle over the
        # null telemetry still measures wall time, it just records nothing.
        with TimerHandle(NULL_TELEMETRY, "x") as handle:
            pass
        assert handle.elapsed_s >= 0.0
        assert NULL_TELEMETRY.snapshot() == {}


class TestSpans:
    def test_parent_child_nesting(self):
        t = Telemetry()
        with t.span("outer"):
            with t.span("inner", devices=3):
                pass
            with t.span("sibling"):
                pass
        outer, inner, sibling = t.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id
        assert inner.attrs == {"devices": 3}
        assert outer.elapsed_s >= inner.elapsed_s >= 0.0

    def test_set_attaches_attributes(self):
        t = Telemetry()
        with t.span("s") as span:
            span.set(extra=1)
        assert t.spans[0].attrs == {"extra": 1}


class TestGauges:
    def test_set_gauge_tracks_last_and_peak(self):
        t = Telemetry()
        t.set_gauge("pool.queue_depth", 3)
        t.set_gauge("pool.queue_depth", 9)
        t.set_gauge("pool.queue_depth", 4)
        stat = t.gauges["pool.queue_depth"]
        assert stat.last == 4.0
        assert stat.max_value == 9.0

    def test_gauge_stat_round_trips_through_dict(self):
        stat = GaugeStat()
        stat.record(5)
        stat.record(2)
        clone = GaugeStat.from_dict(stat.as_dict())
        assert clone.last == 2.0 and clone.max_value == 5.0
        assert GaugeStat().as_dict() == {"last": 0.0, "max": 0.0}

    def test_gauge_merge_keeps_the_peak(self):
        a = GaugeStat()
        a.record(7)
        b = GaugeStat()
        b.record(3)
        a.merge(b)
        assert a.last == 3.0 and a.max_value == 7.0


class TestThreadSafety:
    def test_concurrent_counts_and_spans_under_one_parent(self):
        """Scenario threads interleaving into one collector: counters
        must not lose increments, and spans created on worker threads
        graft under the adopted parent via :meth:`under_span`."""
        t = Telemetry()
        with t.span("campaign.run") as run:
            def work():
                with t.under_span(run.span_id):
                    for _ in range(200):
                        t.count("devices")
                    with t.span("campaign.scenario"):
                        t.set_gauge("depth", 1)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert t.counters["devices"] == 800
        scenario_spans = [s for s in t.spans
                         if s.name == "campaign.scenario"]
        assert len(scenario_spans) == 4
        assert all(s.parent_id == run.span_id for s in scenario_spans)
        assert len({s.span_id for s in t.spans}) == len(t.spans)

    def test_under_span_none_is_a_noop(self):
        t = Telemetry()
        with t.under_span(None):
            with t.span("orphan"):
                pass
        assert t.spans[0].parent_id is None


class TestNullTelemetry:
    def test_is_strict_noop(self):
        null = NullTelemetry()
        assert not null.enabled
        assert null.progress_every == 0
        null.count("a", 5)
        null.record_timer("b", 1.0)
        null.set_gauge("g", 1.0)
        with null.timer("c") as timer:
            assert timer.elapsed_s == 0.0
        with null.span("d", x=1) as span:
            span.set(y=2)
            assert span.span_id is None
        with null.under_span(None):
            pass
        assert null.snapshot() == {}

    def test_shared_context_instances(self):
        # The no-op context managers allocate nothing per call.
        null = NullTelemetry()
        assert null.timer("a") is null.timer("b") is null.span("c")

    def test_null_contexts_propagate_errors_and_stack(self):
        # The null context's __enter__/__exit__ are static: exceptions
        # must still propagate, and ExitStack, which passes the instance
        # explicitly, must still enter and exit it.
        null = NullTelemetry()
        with pytest.raises(KeyError):
            with null.span("a"):
                raise KeyError("boom")
        with pytest.raises(ValueError):
            with contextlib.ExitStack() as stack:
                assert stack.enter_context(null.span("b")) is null.timer("c")
                raise ValueError("boom")


class TestSession:
    def test_default_is_null(self):
        assert current_telemetry() is NULL_TELEMETRY

    def test_session_installs_and_restores(self):
        t = Telemetry()
        with telemetry_session(t) as installed:
            assert installed is t
            assert current_telemetry() is t
            nested = Telemetry()
            with telemetry_session(nested):
                assert current_telemetry() is nested
            assert current_telemetry() is t
        assert current_telemetry() is NULL_TELEMETRY

    def test_session_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with telemetry_session(Telemetry()):
                raise RuntimeError("boom")
        assert current_telemetry() is NULL_TELEMETRY


class TestAbsorbWorker:
    def test_merges_counters_timers_and_spans(self):
        worker = Telemetry()
        worker.count("engine.devices", 10)
        worker.record_timer("shard", 0.5)
        with worker.span("outer"):
            with worker.span("inner"):
                pass

        parent = Telemetry()
        parent.count("engine.devices", 5)
        with parent.span("run"):
            parent.absorb_worker(worker.snapshot(), queue_wait_s=0.25)
        assert parent.counters["engine.devices"] == 15
        assert parent.timers["shard"].count == 1
        assert parent.timers["executor.queue_wait"].total_s == \
            pytest.approx(0.25)
        run, outer, inner = parent.spans
        # The worker's span forest is grafted under the active span with
        # fresh ids, preserving its internal parent/child structure.
        assert outer.parent_id == run.span_id
        assert inner.parent_id == outer.span_id
        assert len({s.span_id for s in parent.spans}) == 3

    def test_ignores_transport_keys(self):
        record = Telemetry().snapshot()
        record["pid"] = 123
        record["start_monotonic"] = 1.0
        parent = Telemetry()
        parent.absorb_worker(record)
        assert parent.counters == {} and parent.spans == []


class TestShardProgress:
    def test_logs_on_cadence_and_at_the_end(self):
        logger = logging.getLogger("test.progress.cadence")
        logger.setLevel(logging.INFO)
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        handler = Capture()
        logger.addHandler(handler)
        try:
            progress = ShardProgress(5, every=2, task_sizes=[10] * 5,
                                     logger=logger)
            assert progress.active
            for i in range(5):
                progress.step(i)
        finally:
            logger.removeHandler(handler)
        # shards 2, 4 (cadence) and 5 (final) log; devices/s is rolling.
        assert len(records) == 3
        assert records[0].startswith("shard 2/5 done, 20 devices")
        assert records[-1].startswith("shard 5/5 done, 50 devices")

    def test_zero_cadence_is_inactive(self):
        assert not ShardProgress(5, every=0).active

    def test_schema_version_shape(self):
        assert SCHEMA_VERSION == "repro.metrics/1"

    def test_logger_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("executor").name == "repro.executor"
