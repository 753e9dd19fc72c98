"""End-to-end serve suite: batch parity, concurrency, kill-and-resume.

The three acceptance properties of the streaming front door:

* a request stream screened by ``ServeServer`` produces a final ledger
  **byte-identical** to the batch :meth:`Campaign.run` of the same
  scenarios;
* concurrent TCP clients interleave through the shared pool without
  changing any result (requests carry explicit seeds, so arrival order
  is provably irrelevant);
* a SIGKILLed server restarted with ``--resume`` replays journaled
  shards, dispatches only unfinished ones, and **converges to the
  byte-identical ledger** — the checkpoint journal itself is the
  observable (resume after a completed run appends zero new shard
  lines; resume after losing k shard lines re-journals exactly those k).
"""

import asyncio
import gc
import io
import json
import warnings

import pytest

from repro.campaign import Campaign, Scenario
from repro.production import ExecutionPlan
from repro.production.pool import close_default_pool
from repro.serve import ServeServer
from repro.telemetry import Telemetry, telemetry_session


@pytest.fixture(autouse=True)
def _clean_default_pool():
    close_default_pool()
    yield
    close_default_pool()


#: The canonical mixed request stream: a noisy full BIST (stream path),
#: the conventional histogram, and a partial BIST at a different q.
SCENARIOS = [
    dict(architecture="flash", method="bist", n_bits=6, q=2,
         n_devices=240, transition_noise_lsb=0.05),
    dict(architecture="flash", method="histogram", n_bits=6,
         n_devices=240),
    dict(architecture="flash", method="bist", n_bits=6, q=4,
         n_devices=240),
]


def _requests(scenarios=None, seeds=None):
    """One JSONL request script (without shutdown: EOF drains)."""
    lines = []
    for i, kwargs in enumerate(scenarios or SCENARIOS):
        obj = {"scenario": kwargs}
        if seeds is not None:
            obj["seed"] = seeds[i]
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


def _batch_ledger(seed=99, scenarios=None, plan=None):
    """The reference: the batch campaign's ledger for the same stream."""
    result = Campaign([Scenario(**kwargs)
                       for kwargs in (scenarios or SCENARIOS)],
                      seed=seed).run(
        plan=plan or ExecutionPlan(workers=1, shard_devices=64))
    return (result.store.campaign_table() + "\n\n"
            + result.store.summary() + "\n")


def _serve(stdin_text, **kwargs):
    """Run one stdin-fed serve session to completion; returns the server
    and its parsed event stream."""
    out = io.StringIO()
    server = ServeServer(stdin=io.StringIO(stdin_text), out=out, **kwargs)
    assert asyncio.run(server.run()) == 0
    events = [json.loads(line) for line in
              out.getvalue().splitlines() if line.strip()]
    return server, events


def _shard_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "shard"]


class TestStreamedEqualsBatch:
    def test_ledger_byte_identical_to_campaign(self):
        plan = ExecutionPlan(workers=1, shard_devices=64)
        server, events = _serve(_requests(), plan=plan, seed=99)
        assert server.rolling.ledger() == _batch_ledger(seed=99, plan=plan)

    def test_event_stream_shape_and_campaign_parity(self):
        plan = ExecutionPlan(workers=1, shard_devices=64)
        server, events = _serve(_requests(), plan=plan, seed=99)
        accepted = [e for e in events if e["event"] == "accepted"]
        results = [e for e in events if e["event"] == "result"]
        campaign = Campaign([Scenario(**k) for k in SCENARIOS], seed=99)
        assert [e["label"] for e in accepted] == campaign.labels()
        assert [e["seed"] for e in accepted] == campaign.seeds()
        assert [e["seq"] for e in accepted] == [0, 1, 2]
        assert len(results) == 3
        # Rolling totals are monotonic across result events.
        rolling = [e["rolling"]["requests"] for e in results]
        assert rolling == sorted(rolling) and rolling[-1] == 3
        for event in results:
            assert event["rolling"]["scenario"]["label"] == \
                event["record"]["label"]
        ledger = [e for e in events if e["event"] == "ledger"]
        assert len(ledger) == 1 and ledger[0]["requests"] == 3
        assert ledger[0]["table"] == server.rolling.ledger()

    def test_bad_lines_report_errors_and_serving_continues(self):
        script = "\n".join([
            json.dumps({"scenario": SCENARIOS[0]}),
            "{not json",
            json.dumps({"scenario": {"wafers": 9}}),
            json.dumps({"scenario": SCENARIOS[1]}),
        ]) + "\n"
        plan = ExecutionPlan(workers=1, shard_devices=64)
        with telemetry_session(Telemetry()) as telemetry:
            server, events = _serve(script, plan=plan, seed=99)
        errors = [e for e in events if e["event"] == "error"]
        assert len(errors) == 2
        assert len(server.rolling) == 2  # both good requests screened
        assert telemetry.counters["serve.errors"] == 2
        assert telemetry.counters["serve.results"] == 2
        # Bad lines consume no seq: the good stream still matches batch.
        assert server.rolling.ledger() == _batch_ledger(
            seed=99, scenarios=SCENARIOS[:2], plan=plan)

    def test_unbuildable_scenario_is_an_error_event(self, tmp_path):
        """A 2-bit pipeline has no stages: the request is refused at
        intake (never journaled), the next one is screened and the server
        exits cleanly."""
        script = _requests(scenarios=[
            dict(architecture="pipeline", n_bits=2, n_devices=64),
            dict(n_devices=64),
        ])
        ckpt = tmp_path / "serve.ckpt"
        plan = ExecutionPlan(workers=1, shard_devices=64)
        server, events = _serve(script, plan=plan, seed=7,
                                checkpoint=str(ckpt))
        assert [e["event"] for e in events] == [
            "error", "accepted", "result", "ledger"]
        assert "n_bits >= 3" in events[0]["error"]
        assert events[1]["seq"] == 0 and len(server.rolling) == 1
        resumed, _ = _serve("", plan=plan, resume=str(ckpt))
        assert resumed.rolling.ledger() == server.rolling.ledger()

    def test_shutdown_command_drains_and_ignores_the_rest(self):
        script = "\n".join([
            json.dumps({"scenario": SCENARIOS[0]}),
            json.dumps({"command": "shutdown"}),
            json.dumps({"scenario": SCENARIOS[1]}),  # after shutdown
        ]) + "\n"
        plan = ExecutionPlan(workers=1, shard_devices=64)
        server, events = _serve(script, plan=plan, seed=99)
        assert [e["event"] for e in events].count("draining") == 1
        assert len(server.rolling) == 1
        assert server.rolling.ledger() == _batch_ledger(
            seed=99, scenarios=SCENARIOS[:1], plan=plan)

    def test_ledger_path_artefact(self, tmp_path):
        ledger_file = tmp_path / "ledger.txt"
        plan = ExecutionPlan(workers=1, shard_devices=64)
        server, _ = _serve(_requests(), plan=plan, seed=99,
                           ledger_path=str(ledger_file))
        assert ledger_file.read_text() == server.rolling.ledger()


class TestCheckpointResume:
    def test_full_resume_replays_without_new_work(self, tmp_path):
        """Resume after a *completed* run: every shard replays from the
        journal — zero new shard lines — and the ledger is identical."""
        ckpt = tmp_path / "serve.ckpt"
        plan = ExecutionPlan(workers=1, shard_devices=64)
        first, _ = _serve(_requests(), plan=plan, seed=99,
                          checkpoint=str(ckpt))
        journaled = _shard_lines(ckpt)
        assert journaled  # the run journaled its shards
        with telemetry_session(Telemetry()) as telemetry:
            resumed, events = _serve("", plan=plan, seed=0,
                                     resume=str(ckpt))
        assert [e for e in events if e["event"] == "resumed"]
        assert telemetry.counters["serve.resumed"] == 3
        # Root seed came from the journal, not the constructor.
        assert resumed.seed == 99
        assert resumed.rolling.ledger() == first.rolling.ledger()
        assert _shard_lines(ckpt) == journaled  # nothing recomputed

    def test_partial_resume_recomputes_only_missing_shards(self, tmp_path):
        """Drop k journaled shards (and tear the tail, as a SIGKILL
        would): resume re-journals exactly those k and converges."""
        ckpt = tmp_path / "serve.ckpt"
        plan = ExecutionPlan(workers=1, shard_devices=64)
        first, _ = _serve(_requests(), plan=plan, seed=99,
                          checkpoint=str(ckpt))
        reference = first.rolling.ledger()
        lines = ckpt.read_text().splitlines()
        is_shard = [json.loads(line).get("kind") == "shard"
                    for line in lines]
        shard_indices = [i for i, flag in enumerate(is_shard) if flag]
        assert len(shard_indices) >= 4
        dropped = shard_indices[-3:]  # lose the last three shards
        kept = [line for i, line in enumerate(lines) if i not in dropped]
        lost_keys = {(json.loads(lines[i])["seq"],
                      json.loads(lines[i])["run"],
                      json.loads(lines[i])["shard"]) for i in dropped}
        ckpt.write_text("\n".join(kept) + "\n"
                        + '{"kind": "shard", "torn')  # torn tail
        resumed, _ = _serve("", plan=plan, resume=str(ckpt))
        assert resumed.rolling.ledger() == reference
        recomputed = {(s["seq"], s["run"], s["shard"])
                      for s in _shard_lines(ckpt)} - {
            (s["seq"], s["run"], s["shard"])
            for i, s in enumerate(map(json.loads, kept))
            if s.get("kind") == "shard"}
        assert recomputed == lost_keys

    def test_resume_accepts_new_requests_after_replay(self, tmp_path):
        """A resumed server is a live server: journaled requests replay
        and fresh requests continue the seq numbering seamlessly."""
        ckpt = tmp_path / "serve.ckpt"
        plan = ExecutionPlan(workers=1, shard_devices=64)
        _serve(_requests(scenarios=SCENARIOS[:2]), plan=plan, seed=99,
               checkpoint=str(ckpt))
        resumed, events = _serve(
            json.dumps({"scenario": SCENARIOS[2]}) + "\n",
            plan=plan, resume=str(ckpt))
        accepted = [e for e in events if e["event"] == "accepted"]
        assert [e["seq"] for e in accepted] == [2]  # continues after 0, 1
        assert resumed.rolling.ledger() == _batch_ledger(seed=99,
                                                         plan=plan)

    @staticmethod
    def _mislabelled_journal(tmp_path, plan):
        """A finished journal whose request label no longer replays."""
        ckpt = tmp_path / "serve.ckpt"
        _serve(_requests(scenarios=SCENARIOS[:1]), plan=plan, seed=99,
               checkpoint=str(ckpt))
        lines = ckpt.read_text().splitlines()
        doctored = []
        for line in lines:
            obj = json.loads(line)
            if obj.get("kind") == "request":
                obj["label"] = "someone else's row"
            doctored.append(json.dumps(obj))
        ckpt.write_text("\n".join(doctored) + "\n")
        return ckpt

    def test_corrupt_label_mismatch_refuses_resume(self, tmp_path):
        plan = ExecutionPlan(workers=1, shard_devices=64)
        ckpt = self._mislabelled_journal(tmp_path, plan)
        out = io.StringIO()
        server = ServeServer(plan=plan, resume=str(ckpt),
                             stdin=io.StringIO(""), out=out)
        with pytest.raises(ValueError, match="checkpoint corrupt"):
            asyncio.run(server.run())

    def test_refused_resume_closes_the_journal(self, tmp_path):
        """The journal writer opens before the replay that refuses the
        resume; it must still be closed, not left to the collector."""
        plan = ExecutionPlan(workers=1, shard_devices=64)
        ckpt = self._mislabelled_journal(tmp_path, plan)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            server = ServeServer(plan=plan, resume=str(ckpt),
                                 stdin=io.StringIO(""), out=io.StringIO())
            with pytest.raises(ValueError, match="checkpoint corrupt"):
                asyncio.run(server.run())
            del server
            gc.collect()
        leaks = [str(w.message) for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert leaks == []


    def test_resume_under_another_seed_reports_mismatch(self, tmp_path):
        """A journaled request replayed under another seed fails with a
        typed error instead of merging the other seed's shards."""
        ckpt = tmp_path / "serve.ckpt"
        plan = ExecutionPlan(workers=1, shard_devices=64)
        _serve(_requests(scenarios=SCENARIOS[:1]), plan=plan, seed=99,
               checkpoint=str(ckpt))
        doctored = []
        for line in ckpt.read_text().splitlines():
            obj = json.loads(line)
            if obj.get("kind") == "request":
                obj["seed"] += 1
            doctored.append(json.dumps(obj))
        ckpt.write_text("\n".join(doctored) + "\n")
        resumed, events = _serve("", plan=plan, resume=str(ckpt))
        errors = [e for e in events if e["event"] == "error"]
        assert len(errors) == 1
        assert errors[0]["error"].startswith("CheckpointMismatchError")
        assert len(resumed.rolling) == 0


class TestSocketClients:
    """Concurrent TCP clients against one shared pool.

    The server emits each result when its screening completes, so a
    client matches results to its requests by ``seq`` (its ``accepted``
    events arrive in request order), never by arrival order.
    """

    # Each client pins explicit seeds, so whichever arrival interleaving
    # the sockets produce, the screened work is identical and the
    # label-sorted ledger must match the batch run of the union.
    CLIENT_A = [(SCENARIOS[0], 101), (SCENARIOS[2], 303)]
    CLIENT_B = [(SCENARIOS[1], 202)]

    async def _client_session(self, port, requests):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for kwargs, seed in requests:
            writer.write((json.dumps({"scenario": kwargs, "seed": seed})
                          + "\n").encode())
        await writer.drain()
        writer.write_eof()
        accepted, results = [], {}
        while len(results) < len(requests):
            line = await asyncio.wait_for(reader.readline(), timeout=60)
            assert line, "server closed before all results arrived"
            event = json.loads(line)
            assert event["event"] != "error", event
            if event["event"] == "accepted":
                accepted.append(event["seq"])
            elif event["event"] == "result":
                results[event["seq"]] = event
        writer.close()
        # Exactly this client's requests came back, one result each.
        assert sorted(results) == sorted(accepted)
        return [results[seq] for seq in accepted]

    @staticmethod
    async def _port(out):
        for _ in range(600):
            listening = [json.loads(line) for line in
                         out.getvalue().splitlines()
                         if '"listening"' in line]
            if listening:
                return listening[0]["port"]
            await asyncio.sleep(0.05)
        pytest.fail("server never announced its port")

    async def _run_session(self, server, out):
        server_task = asyncio.create_task(server.run())
        port = await self._port(out)
        a, b = await asyncio.gather(
            self._client_session(port, self.CLIENT_A),
            self._client_session(port, self.CLIENT_B))
        server._closing.set()  # operator shutdown
        assert await server_task == 0
        return a, b

    def test_concurrent_clients_match_batch(self):
        plan = ExecutionPlan(workers=2, shard_devices=64)
        out = io.StringIO()
        server = ServeServer(plan=plan, seed=5,
                             socket=("127.0.0.1", 0), out=out)
        with telemetry_session(Telemetry()) as telemetry:
            a_results, b_results = asyncio.run(
                self._run_session(server, out))
        # Each client saw exactly its own results, matched by seq.
        assert [e["record"]["seed"] for e in a_results] == [101, 303]
        assert [e["record"]["seed"] for e in b_results] == [202]
        assert telemetry.counters["serve.clients"] == 2
        assert telemetry.counters["serve.results"] == 3
        scenarios = [Scenario(seed=seed, **kwargs) for kwargs, seed in
                     self.CLIENT_A + self.CLIENT_B]
        reference = Campaign(scenarios, seed=5).run(
            plan=ExecutionPlan(workers=1, shard_devices=64))
        assert server.rolling.ledger() == (
            reference.store.campaign_table() + "\n\n"
            + reference.store.summary() + "\n")

    async def _idle_clients_session(self, server, out, telemetry, calls):
        """A session ended by the operator under two idle clients: one
        that never half-closes its write side, and one that connects and
        sends nothing.  Returns the ``_client`` tasks still pending once
        ``run()`` has returned."""
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: calls.append(context))
        server_task = asyncio.create_task(server.run())
        port = await self._port(out)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        kwargs, seed = self.CLIENT_B[0]
        writer.write((json.dumps({"scenario": kwargs, "seed": seed})
                      + "\n").encode())
        await writer.drain()
        event = {}
        while event.get("event") != "result":
            line = await asyncio.wait_for(reader.readline(), timeout=60)
            assert line, "server closed before the result arrived"
            event = json.loads(line)
        _, silent = await asyncio.open_connection("127.0.0.1", port)
        for _ in range(600):
            if telemetry.counters.get("serve.clients") == 2:
                break
            await asyncio.sleep(0.01)
        else:
            pytest.fail("server never took the silent client")
        server._closing.set()  # operator shutdown
        assert await server_task == 0
        pending = [task for task in asyncio.all_tasks()
                   if task.get_coro().__qualname__ == "ServeServer._client"]
        writer.close()
        silent.close()
        return pending

    def test_shutdown_leaves_no_client_handler_to_cancel(self):
        # A handler left pending is cancelled by asyncio.run's cleanup,
        # and Python 3.11's stream protocol then reports the
        # CancelledError through the loop's exception handler.
        out = io.StringIO()
        server = ServeServer(plan=ExecutionPlan(workers=1), seed=5,
                             socket=("127.0.0.1", 0), out=out)
        calls = []
        with telemetry_session(Telemetry()) as telemetry:
            pending = asyncio.run(self._idle_clients_session(
                server, out, telemetry, calls))
        assert pending == []
        assert calls == []

    def test_handler_returns_when_its_connection_dies(self):
        """A drain that finds the connection gone (reset by the peer, or
        closed by the session's end) ends the handler without an
        error."""
        class Reader:
            async def readline(self):
                return b"{not json\n"

        class Writer:
            def __init__(self):
                self.data = b""

            def is_closing(self):
                return False

            def write(self, data):
                self.data += data

            async def drain(self):
                raise ConnectionResetError("Connection lost")

        writer = Writer()
        server = ServeServer(out=io.StringIO())
        assert asyncio.run(server._client(Reader(), writer)) is None
        assert json.loads(writer.data)["event"] == "error"
