"""The executor's ambient per-thread seams: abort, journal and SPC.

:func:`~repro.production.execution.abort_scope` /
:func:`~repro.production.execution.check_abort` are the cooperative
cancellation a campaign uses to stop sibling scenario threads promptly;
:func:`~repro.production.execution.journal_scope` is the
checkpoint/resume seam of the streaming service;
:func:`~repro.production.execution.spc_scope` feeds an adaptive flow's
SPC monitor.  All are strictly opt-in: with none installed,
:meth:`ShardExecutor.map` must behave exactly as before (the
byte-identity suites in ``test_execution.py`` and ``test_pool.py`` pin
that side).
"""

import threading

import pytest

from repro.production.execution import (
    ExecutionAborted,
    ExecutionPlan,
    ShardExecutor,
    abort_scope,
    check_abort,
    current_abort,
    current_journal,
    current_monitor,
    journal_scope,
    spc_scope,
)
from repro.production.pool import close_default_pool
from repro.telemetry import Telemetry, telemetry_session

#: Every seam as its (scope, reader) pair.
SEAMS = {
    "abort": (abort_scope, current_abort),
    "journal": (journal_scope, current_journal),
    "spc": (spc_scope, current_monitor),
}


class _MemoryJournal:
    """Minimal in-memory implementation of the journal protocol."""

    def __init__(self, preloaded=None):
        self.results = dict(preloaded or {})
        self.runs = 0
        self.recorded = []

    def begin_attempt(self):
        self.runs = 0

    def begin_run(self, n_tasks, digest=None):
        run = self.runs
        self.runs += 1
        return run

    def lookup(self, run, index):
        if (run, index) in self.results:
            return True, self.results[(run, index)]
        return False, None

    def record(self, run, index, value):
        self.results[(run, index)] = value
        self.recorded.append((run, index))


def _double(value):
    return value * 2


@pytest.mark.parametrize("seam", sorted(SEAMS))
class TestSeamScopes:
    def test_default_is_none(self, seam):
        _scope, current = SEAMS[seam]
        assert current() is None

    def test_none_is_noop(self, seam):
        scope, current = SEAMS[seam]
        with scope(None):
            assert current() is None

    def test_nesting_and_thread_locality(self, seam):
        scope, current = SEAMS[seam]
        outer, inner = threading.Event(), threading.Event()
        with scope(outer):
            assert current() is outer
            with scope(inner):
                assert current() is inner
            with scope(None):
                assert current() is outer
            assert current() is outer
        assert current() is None
        seen = []
        with scope(outer):
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join()
        assert seen == [None]  # another thread never sees our seam

    def test_restored_when_the_block_raises(self, seam):
        scope, current = SEAMS[seam]
        outer, inner = threading.Event(), threading.Event()
        with scope(outer):
            with pytest.raises(RuntimeError):
                with scope(inner):
                    raise RuntimeError("shard failed")
            assert current() is outer
        assert current() is None


class TestAbortScope:
    def test_check_abort_raises_when_set(self):
        check_abort()  # no-op without an installed event
        event = threading.Event()
        with abort_scope(event):
            check_abort()
            event.set()
            with pytest.raises(ExecutionAborted):
                check_abort()

    def test_serial_map_stops_between_tasks(self):
        event = threading.Event()
        executed = []

        def task(i):
            executed.append(i)
            if i == 2:
                event.set()
            return i

        executor = ShardExecutor(ExecutionPlan(workers=1))
        with abort_scope(event):
            with pytest.raises(ExecutionAborted):
                executor.map(task, [(i,) for i in range(10)])
        # Task 2 set the event; task 3 never ran.
        assert executed == [0, 1, 2]

    def test_map_refuses_to_start_when_already_aborted(self):
        event = threading.Event()
        event.set()
        executor = ShardExecutor(ExecutionPlan(workers=1))
        with abort_scope(event):
            with pytest.raises(ExecutionAborted):
                executor.map(_double, [(1,)])


class TestJournalScope:
    def test_records_then_replays(self):
        executor = ShardExecutor(ExecutionPlan(workers=1))
        journal = _MemoryJournal()
        with journal_scope(journal):
            assert executor.map(_double, [(1,), (2,), (3,)]) == [2, 4, 6]
        assert journal.runs == 1
        assert sorted(journal.results) == [(0, 0), (0, 1), (0, 2)]

        calls = []

        def tracked(value):
            calls.append(value)
            return value * 2

        replay = _MemoryJournal(preloaded=journal.results)
        with journal_scope(replay):
            assert executor.map(tracked, [(1,), (2,), (3,)]) == [2, 4, 6]
        assert calls == []  # full replay: nothing recomputed

    def test_partial_replay_dispatches_only_missing(self):
        executor = ShardExecutor(ExecutionPlan(workers=1))
        journal = _MemoryJournal()
        with journal_scope(journal):
            executor.map(_double, [(i,) for i in range(4)])
        # Simulate a crash that lost the middle shards.
        del journal.results[(0, 1)]
        del journal.results[(0, 2)]
        calls = []

        def tracked(value):
            calls.append(value)
            return value * 2

        resumed = _MemoryJournal(preloaded=journal.results)
        with journal_scope(resumed):
            results = executor.map(tracked, [(i,) for i in range(4)])
        assert results == [0, 2, 4, 6]
        assert calls == [1, 2]  # only the lost shards recomputed
        assert resumed.recorded == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partial_replay_spans_carry_absolute_shard_indices(self,
                                                                workers):
        executor = ShardExecutor(ExecutionPlan(workers=workers))
        journal = _MemoryJournal()
        with journal_scope(journal):
            executor.map(_double, [(i,) for i in range(4)])
        del journal.results[(0, 1)]
        del journal.results[(0, 2)]
        resumed = _MemoryJournal(preloaded=journal.results)
        try:
            with telemetry_session(Telemetry()) as telemetry, \
                    journal_scope(resumed):
                results = executor.map(_double, [(i,) for i in range(4)],
                                       task_sizes=[5, 6, 7, 8])
        finally:
            close_default_pool()
        assert results == [0, 2, 4, 6]
        spans = [span.attrs for span in telemetry.spans
                 if span.name == "executor.shard"]
        assert sorted((a["shard"], a["devices"]) for a in spans) == [
            (1, 6), (2, 7)]

    def test_run_counter_distinguishes_successive_runs(self):
        executor = ShardExecutor(ExecutionPlan(workers=1))
        journal = _MemoryJournal()
        with journal_scope(journal):
            executor.map(_double, [(1,)])
            executor.map(_double, [(10,)])
        assert journal.results == {(0, 0): 2, (1, 0): 20}
        # begin_attempt resets the numbering for a from-the-top retry.
        journal.begin_attempt()
        calls = []

        def tracked(value):
            calls.append(value)
            return value * 2

        with journal_scope(journal):
            assert executor.map(tracked, [(1,)]) == [2]
            assert executor.map(tracked, [(10,)]) == [20]
        assert calls == []  # both runs replayed under their old indices

