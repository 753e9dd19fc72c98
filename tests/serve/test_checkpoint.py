"""Checkpoint journal unit suite: durability and torn-tail semantics.

The journal is what makes ``repro serve`` SIGKILL-proof, so the failure
modes get the coverage: a torn final line is tolerated (and truncated
away on the next append, so a *twice*-killed server still resumes),
corruption anywhere else is a hard error, duplicate shard entries —
the pool-broken retry re-recording a shard — keep the last occurrence,
and a journal of another version, seed or configuration is refused
instead of replayed.
"""

import asyncio
import io
import json

import numpy as np
import pytest

from repro.core import BistConfig
from repro.production import BatchBistEngine, ExecutionPlan, Wafer, WaferSpec
from repro.production.execution import journal_scope
from repro.serve import ServeServer
from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointMismatchError,
    CheckpointWriter,
    RequestJournal,
    decode_result,
    encode_result,
    load_checkpoint,
)


def _lines(path):
    return path.read_text().splitlines()


class TestEncode:
    def test_round_trip(self):
        value = {"bins": [1, 2, 3], "report": ("yield", 0.93)}
        text = encode_result(value)
        assert text.isascii() and "\n" not in text
        assert decode_result(text) == value


class TestCheckpointWriter:
    def test_header_then_records(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        writer = CheckpointWriter(str(path), seed=42)
        writer.request(0, "req-0", "row", 7, {"n_bits": 6})
        writer.shard(0, 0, 1, {"accepted": 3})
        writer.close()
        lines = [json.loads(line) for line in _lines(path)]
        assert lines[0] == {"kind": "serve",
                            "version": CHECKPOINT_VERSION, "seed": 42}
        assert lines[1]["kind"] == "request"
        assert lines[2]["kind"] == "shard"
        assert decode_result(lines[2]["data"]) == {"accepted": 3}

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        CheckpointWriter(str(path), seed=1).close()
        writer = CheckpointWriter(str(path), seed=999)
        writer.shard(0, 0, 0, "late")
        writer.close()
        kinds = [json.loads(line)["kind"] for line in _lines(path)]
        assert kinds == ["serve", "shard"]
        assert load_checkpoint(str(path)).seed == 1

    def test_reopen_truncates_torn_tail(self, tmp_path):
        """A SIGKILL-torn partial line must not glue onto new records."""
        path = tmp_path / "serve.ckpt"
        writer = CheckpointWriter(str(path), seed=1)
        writer.shard(0, 0, 0, "kept")
        writer.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "shard", "seq": 0, "ru')  # no newline
        writer = CheckpointWriter(str(path), seed=1)
        writer.shard(0, 0, 1, "after-resume")
        writer.close()
        # Every line parses — the torn tail is gone, not merged.
        state = load_checkpoint(str(path))
        assert state.shards[0] == {(0, 0): "kept", (0, 1): "after-resume"}


class TestLoadCheckpoint:
    def _journal(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        writer = CheckpointWriter(str(path), seed=9)
        writer.request(1, "b", "row-b", 21, {"n_bits": 6})
        writer.request(0, "a", "row-a", 20, {"n_bits": 7})
        writer.shard(0, 0, 0, "s00")
        writer.shard(1, 0, 0, "s10")
        writer.close()
        return path

    def test_round_trip_sorted_requests(self, tmp_path):
        state = load_checkpoint(str(self._journal(tmp_path)))
        assert state.seed == 9
        assert [r["seq"] for r in state.requests] == [0, 1]
        assert state.shards == {0: {(0, 0): "s00"}, 1: {(0, 0): "s10"}}

    def test_torn_last_line_tolerated(self, tmp_path):
        path = self._journal(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"kind": "shard", "se')
        state = load_checkpoint(str(path))
        assert len(state.requests) == 2  # everything before the tear

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = self._journal(tmp_path)
        lines = _lines(path)
        lines[2] = "garbage {"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt checkpoint.*line 3"):
            load_checkpoint(str(path))

    def test_unknown_kind_raises(self, tmp_path):
        path = self._journal(tmp_path)
        lines = _lines(path)
        lines.insert(1, '{"kind": "wafer"}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_checkpoint(str(path))

    def test_duplicate_shard_keeps_last(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        writer = CheckpointWriter(str(path), seed=1)
        writer.shard(0, 0, 0, "first")
        writer.shard(0, 0, 0, "retry")
        writer.close()
        assert load_checkpoint(str(path)).shards[0][(0, 0)] == "retry"


class TestRequestJournal:
    def test_records_replay_and_runs_count(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        writer = CheckpointWriter(str(path), seed=1)
        journal = RequestJournal(writer, seq=3)
        assert journal.begin_run(2) == 0
        assert journal.lookup(0, 0) == (False, None)
        journal.record(0, 0, "value")
        assert journal.lookup(0, 0) == (True, "value")
        assert journal.begin_run(1) == 1
        writer.close()
        state = load_checkpoint(str(path))
        assert state.shards == {3: {(0, 0): "value"}}

    def test_begin_attempt_resets_runs_keeps_results(self):
        journal = RequestJournal(None, seq=0,
                                 preloaded={(0, 0): "journaled"})
        assert journal.begin_run(1) == 0
        journal.record(0, 1, "fresh")
        journal.begin_attempt()
        assert journal.begin_run(1) == 0  # numbering restarts
        assert journal.lookup(0, 0) == (True, "journaled")
        assert journal.lookup(0, 1) == (True, "fresh")  # kept

    def test_none_writer_is_memory_only(self):
        journal = RequestJournal(None, seq=0)
        journal.record(0, 0, "value")
        assert journal.lookup(0, 0) == (True, "value")


def _engine_run(seed=5, dnl_spec_lsb=1.0, shard_devices=16):
    """A small noisy sharded engine run, as a replayable callable."""
    config = BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=dnl_spec_lsb,
                        transition_noise_lsb=0.05, deglitch_depth=3)
    wafer = Wafer.draw(WaferSpec(n_devices=48), rng=1)
    plan = ExecutionPlan(shard_devices=shard_devices)
    return lambda: BatchBistEngine(config).run_wafer(wafer, rng=seed,
                                                     plan=plan)


def _journal_run(path, run):
    writer = CheckpointWriter(str(path), seed=1)
    with journal_scope(RequestJournal(writer, 0)):
        result = run()
    writer.close()
    return result


def _resume_run(path, run):
    """Replay ``run`` from the journal at ``path``; returns the result and
    the shards it had to recompute."""
    state = load_checkpoint(str(path))
    journal = RequestJournal(None, 0, preloaded=state.shards.get(0),
                             digests=state.runs.get(0))
    recorded = []
    journal.record = lambda run, index, value: recorded.append(index)
    with journal_scope(journal):
        return run(), recorded


class TestJournalVerification:
    def test_same_inputs_replay_every_shard(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        live = _journal_run(path, _engine_run())
        runs = [json.loads(line) for line in _lines(path)
                if json.loads(line)["kind"] == "run"]
        assert [(r["seq"], r["run"]) for r in runs] == [(0, 0)]
        replayed, recomputed = _resume_run(path, _engine_run())
        assert recomputed == []
        np.testing.assert_array_equal(replayed.passed, live.passed)

    @pytest.mark.parametrize("changed", [
        dict(seed=6), dict(dnl_spec_lsb=0.5), dict(shard_devices=24)],
        ids=["seed", "config", "geometry"])
    def test_resume_under_other_inputs_raises(self, tmp_path, changed):
        path = tmp_path / "serve.ckpt"
        _journal_run(path, _engine_run())
        with pytest.raises(CheckpointMismatchError, match="request 0 run 0"):
            _resume_run(path, _engine_run(**changed))

    def test_replayed_run_journals_no_second_digest(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        writer = CheckpointWriter(str(path), seed=1)
        journal = RequestJournal(writer, 0)
        with journal_scope(journal):
            _engine_run()()
            journal.begin_attempt()
            _engine_run()()
        writer.close()
        kinds = [json.loads(line)["kind"] for line in _lines(path)]
        assert kinds.count("run") == 1
        assert kinds.count("shard") == 3

    @pytest.mark.parametrize("version", ["repro.serve/1",
                                         "repro.serve/2"])
    def test_other_version_refused(self, tmp_path, version):
        path = tmp_path / "serve.ckpt"
        _journal_run(path, _engine_run())
        lines = _lines(path)
        header = json.loads(lines[0])
        header["version"] = version
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(CheckpointMismatchError, match=version):
            load_checkpoint(str(path))
        server = ServeServer(resume=str(path), stdin=io.StringIO(""),
                             out=io.StringIO())
        with pytest.raises(CheckpointMismatchError):
            asyncio.run(server.run())

    def test_records_without_header_refused(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        _journal_run(path, _engine_run())
        path.write_text("\n".join(_lines(path)[1:]) + "\n")
        with pytest.raises(CheckpointMismatchError, match="no"):
            load_checkpoint(str(path))
