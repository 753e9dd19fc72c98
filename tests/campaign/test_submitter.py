"""ScenarioSubmitter failure semantics and the campaign's fast-fail path.

The regression targets: a scenario that raises mid-campaign must abort
its sibling scenario threads *promptly* (not let them screen to
completion while the error waits), and a :class:`PoolBrokenError` must
be retried against a rebuilt pool exactly ``pool_retries`` times — with
the journal's run numbering realigned per attempt — before propagating.
"""

import os
import signal
import threading
import time

import pytest

from repro.campaign import (
    Campaign,
    LabelDeduper,
    Scenario,
    ScenarioSubmitter,
)
from repro.campaign import driver as driver_module
from repro.production import ExecutionPlan, PoolBrokenError
from repro.production.execution import ExecutionAborted, current_abort
from repro.production.pool import (close_default_pool, current_pool,
                                   dispatch_pool, get_default_pool,
                                   shared_pool)
from repro.telemetry import Telemetry, telemetry_session


@pytest.fixture(autouse=True)
def _clean_default_pool():
    close_default_pool()
    yield
    close_default_pool()


def _suicide(tag):
    """Kill the worker process executing this task (deterministically)."""
    os.kill(os.getpid(), signal.SIGKILL)


def _identity(value):
    return value


def _scenarios():
    return [
        Scenario(architecture="flash", method="bist", n_bits=6, q=2,
                 n_devices=240),
        Scenario(architecture="flash", method="histogram", n_bits=6,
                 n_devices=240),
    ]


class TestLabelDeduper:
    def test_matches_batch_labels_claimed_incrementally(self):
        scenarios = _scenarios() + _scenarios()
        batch = Campaign(scenarios, seed=1).labels()
        deduper = LabelDeduper()
        streamed = [deduper.claim(s.resolved_label) for s in scenarios]
        assert streamed == batch
        assert len(set(streamed)) == len(streamed)

    def test_suffix_collision_with_explicit_label(self):
        deduper = LabelDeduper()
        assert deduper.claim("row [2]") == "row [2]"
        assert deduper.claim("row") == "row"
        # The natural second occurrence "row [2]" is taken; skip past it.
        assert deduper.claim("row") == "row [3]"


class TestPromptSiblingAbort:
    def test_failing_scenario_aborts_sibling_promptly(self, monkeypatch):
        """The first failure must cancel the sibling, not wait it out.

        The sibling stub blocks on the submitter's abort event with a
        10 s ceiling; if the campaign's failure handling did not signal
        it, the run would take the full ceiling and the elapsed-time
        assertion fails.
        """
        scenarios = _scenarios()
        fail_label = Campaign(scenarios, seed=7).labels()[0]
        sibling_signalled = threading.Event()

        def fake_screen(label, seed, line, lot, plan=None,
                        parent_span_id=None):
            if label == fail_label:
                time.sleep(0.05)  # let the sibling reach its wait
                raise RuntimeError("injected scenario failure")
            event = current_abort()
            assert event is not None, "submitter did not install abort"
            if not event.wait(timeout=10.0):
                raise AssertionError("sibling was never aborted")
            sibling_signalled.set()
            raise ExecutionAborted("aborted by sibling failure")

        monkeypatch.setattr(driver_module, "screen_scenario", fake_screen)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="injected scenario failure"):
            Campaign(scenarios, seed=7).run(
                plan=ExecutionPlan(workers=2, shard_devices=64))
        elapsed = time.monotonic() - start
        assert sibling_signalled.is_set()
        assert elapsed < 8.0, f"abort was not prompt: {elapsed:.1f}s"

    def test_queued_submissions_are_cancelled(self, monkeypatch):
        """With one submission thread, the queued scenario never starts."""
        scenarios = _scenarios()
        started = []

        def fake_screen(label, seed, line, lot, plan=None,
                        parent_span_id=None):
            started.append(label)
            raise RuntimeError("first scenario fails")

        monkeypatch.setattr(driver_module, "screen_scenario", fake_screen)
        plan = ExecutionPlan(workers=1)
        with ScenarioSubmitter(plan, max_threads=1) as submitter:
            futures = [
                submitter.submit(f"s{i}", i, line=None, lot=None)
                for i in range(3)
            ]
            done_first = futures[0].exception(timeout=10)
            assert isinstance(done_first, RuntimeError)
            submitter.abort()
            for future in futures[1:]:
                future.cancel()
        # Cancellation raced thread pickup; at minimum the abort event
        # stops anything that did start, and nothing ran to completion.
        assert all(f.done() for f in futures)
        assert len(started) <= 3


class TestPoolRetry:
    def test_broken_pool_retries_and_succeeds(self, monkeypatch):
        calls = []

        def fake_screen(label, seed, line, lot, plan=None,
                        parent_span_id=None):
            calls.append(label)
            if len(calls) == 1:
                raise PoolBrokenError("injected worker death")
            return "report"

        monkeypatch.setattr(driver_module, "screen_scenario", fake_screen)
        plan = ExecutionPlan(workers=1)
        with ScenarioSubmitter(plan, max_threads=1,
                               pool_retries=1) as submitter:
            future = submitter.submit("lbl", 3, line=None, lot=None)
            assert future.result(timeout=10) == "report"
        assert calls == ["lbl", "lbl"]

    def test_worker_death_retries_on_a_fresh_pool(self, monkeypatch):
        """A real SIGKILLed worker: the retry dispatches on a new pool."""
        pools = []

        def dying_screen(label, seed, line, lot, plan=None,
                         parent_span_id=None):
            pool = dispatch_pool(plan.workers)
            pools.append(pool)
            if len(pools) == 1:
                pool.dispatch(_suicide, [(0,)])
            return pool.dispatch(_identity, [(label,)])[0]

        monkeypatch.setattr(driver_module, "screen_scenario", dying_screen)
        telemetry = Telemetry()
        with telemetry_session(telemetry):
            with ScenarioSubmitter(ExecutionPlan(workers=2),
                                   pool_retries=1) as submitter:
                future = submitter.submit("lbl", 3, line=None, lot=None)
                assert future.result(timeout=60) == "lbl"
        first, second = pools
        assert first.broken
        assert second is not first and not second.broken
        assert telemetry.counters.get("pool.rebuilt") == 1

    def test_retries_exhausted_propagates_typed_error(self, monkeypatch):
        calls = []

        def fake_screen(label, seed, line, lot, plan=None,
                        parent_span_id=None):
            calls.append(label)
            raise PoolBrokenError("still broken")

        monkeypatch.setattr(driver_module, "screen_scenario", fake_screen)
        plan = ExecutionPlan(workers=1)
        with ScenarioSubmitter(plan, max_threads=1,
                               pool_retries=2) as submitter:
            future = submitter.submit("lbl", 3, line=None, lot=None)
            with pytest.raises(PoolBrokenError):
                future.result(timeout=10)
        assert calls == ["lbl"] * 3  # initial + 2 retries

    def test_default_zero_retries_propagates_immediately(self, monkeypatch):
        calls = []

        def fake_screen(label, seed, line, lot, plan=None,
                        parent_span_id=None):
            calls.append(label)
            raise PoolBrokenError("worker died")

        monkeypatch.setattr(driver_module, "screen_scenario", fake_screen)
        plan = ExecutionPlan(workers=1)
        with ScenarioSubmitter(plan, max_threads=1) as submitter:
            future = submitter.submit("lbl", 3, line=None, lot=None)
            with pytest.raises(PoolBrokenError):
                future.result(timeout=10)
        assert calls == ["lbl"]

    def test_retry_realigns_journal_attempt(self, monkeypatch):
        events = []

        class StubJournal:
            def begin_attempt(self):
                events.append("begin_attempt")

            def begin_run(self, n_tasks, digest=None):
                return 0

            def lookup(self, run, index):
                return False, None

            def record(self, run, index, value):
                events.append(("record", run, index))

        def fake_screen(label, seed, line, lot, plan=None,
                        parent_span_id=None):
            events.append("screen")
            if events.count("screen") == 1:
                raise PoolBrokenError("injected")
            return "report"

        monkeypatch.setattr(driver_module, "screen_scenario", fake_screen)
        plan = ExecutionPlan(workers=1)
        with ScenarioSubmitter(plan, max_threads=1,
                               pool_retries=1) as submitter:
            future = submitter.submit("lbl", 3, line=None, lot=None,
                                      journal=StubJournal())
            assert future.result(timeout=10) == "report"
        # The retry re-screens from the top with the run counter reset.
        assert events == ["screen", "begin_attempt", "screen"]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_threads"):
            ScenarioSubmitter(ExecutionPlan(workers=1), max_threads=0)
        with pytest.raises(ValueError, match="pool_retries"):
            ScenarioSubmitter(ExecutionPlan(workers=1), pool_retries=-1)

    def test_submit_outside_context_raises(self):
        submitter = ScenarioSubmitter(ExecutionPlan(workers=1))
        with pytest.raises(RuntimeError, match="outside the context"):
            submitter.submit("lbl", 3, line=None, lot=None)


class TestPoolChoice:
    def test_borrows_the_innermost_shared_pool(self):
        plan = ExecutionPlan(workers=2)
        with shared_pool(workers=2) as pool:
            with ScenarioSubmitter(plan):
                assert current_pool() is pool
                assert len(pool.worker_pids()) == 2  # warmed on entry
            assert current_pool() is pool and not pool.closed

    def test_falls_back_to_the_default_pool(self):
        with ScenarioSubmitter(ExecutionPlan(workers=2)):
            assert current_pool() is get_default_pool(2)
        assert current_pool() is None
        with ScenarioSubmitter(ExecutionPlan(workers=1)):
            assert current_pool() is None  # serial: no pool at all
