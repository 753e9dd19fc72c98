"""The asyncio front door: a long-running streaming screening service.

``repro serve`` turns the batch campaign machinery into a *virtual fab*:
an asyncio loop reads Scenario-tagged wafer requests line by line (stdin
JSONL by default, a line-oriented TCP listener with ``--socket``),
schedules each request's shards onto the persistent
:class:`~repro.production.pool.WorkerPool` through the same
:class:`~repro.campaign.driver.ScenarioSubmitter` the interleaved
campaign path uses — so every in-flight request's shards drain through
one shared work queue — and emits JSONL result events against a rolling
ledger (:class:`~repro.serve.store.RollingStore`).

Failure is survivable by construction:

* a worker SIGKILL surfaces as a typed
  :class:`~repro.production.pool.PoolBrokenError`; the broken pool is
  evicted, the submitter rebuilds the default and re-runs the request
  (``pool_retries``), replaying its journaled shards;
* a server SIGKILL loses nothing durable: ``--checkpoint`` journals
  every accepted request and completed shard, and ``--resume``
  re-screens the journaled requests with their journals installed, so
  only genuinely unfinished shards dispatch and the final ledger is
  byte-identical to an uninterrupted run.  A journal of another format
  version, or a run whose inputs differ from the journaled ones, raises
  :class:`~repro.serve.checkpoint.CheckpointMismatchError` instead.

Result events are emitted in completion order, not request order: match
each ``result`` to its request by ``seq`` or ``id``.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
from typing import Any, Dict, List, Optional, Set, TextIO, Tuple

from repro.campaign.driver import LabelDeduper, ScenarioSubmitter
from repro.campaign.driver import scenario_record
from repro.campaign.scenario import Scenario
from repro.production.execution import ExecutionPlan
from repro.production.line import ScreeningLine
from repro.production.pool import PoolBrokenError, sweep_stale_segments
from repro.serve.checkpoint import (CheckpointWriter, RequestJournal,
                                    load_checkpoint)
from repro.serve.protocol import (ProtocolError, ServeRequest,
                                  build_request, event_line, is_shutdown,
                                  parse_line, scenario_kwargs)
from repro.serve.store import RollingStore
from repro.telemetry.core import current_telemetry
from repro.telemetry.log import get_logger

__all__ = ["ServeServer"]

_log = get_logger("serve")


class ServeServer:
    """One streaming serve session: front door, scheduler bridge, ledger.

    Parameters
    ----------
    plan:
        Execution plan every request screens under (``None``:
        ``ExecutionPlan()``, serial; multi-worker plans interleave all
        in-flight requests' shards in the shared pool).
    seed:
        Root seed; request ``seq`` without its own seed screens under
        child seed ``seq`` — the campaign discipline.  On ``--resume``
        the checkpoint's journaled root seed wins.
    socket:
        ``(host, port)`` to listen on instead of reading stdin; port 0
        picks an ephemeral port, announced by the ``listening`` event.
    checkpoint, resume:
        Journal path to write / to restore from.  ``resume`` implies
        journaling to the same file unless ``checkpoint`` names another.
    ledger_path:
        Where to write the final ledger text (the kill-and-resume
        convergence artefact) on shutdown.
    max_inflight:
        Concurrent request screenings (further requests queue in the
        submitter's thread bench).
    pool_retries:
        Per-request re-runs against a rebuilt pool after a
        :class:`~repro.production.pool.PoolBrokenError`.
    stdin, out:
        Stream overrides (tests feed ``io.StringIO`` request scripts and
        capture the event stream).
    """

    def __init__(self, *, plan: Optional[ExecutionPlan] = None,
                 seed: int = 2026,
                 socket: Optional[Tuple[str, int]] = None,
                 checkpoint: Optional[str] = None,
                 resume: Optional[str] = None,
                 ledger_path: Optional[str] = None,
                 max_inflight: int = 8,
                 pool_retries: int = 1,
                 stdin: Optional[TextIO] = None,
                 out: Optional[TextIO] = None) -> None:
        self.plan = plan if plan is not None else ExecutionPlan()
        self.seed = int(seed)
        self.socket = socket
        self.checkpoint = checkpoint
        self.resume = resume
        self.ledger_path = ledger_path
        self.max_inflight = int(max_inflight)
        self.pool_retries = int(pool_retries)
        self._stdin = stdin if stdin is not None else sys.stdin
        self._out = out if out is not None else sys.stdout
        self._emit_lock = threading.Lock()
        self._deduper = LabelDeduper()
        self.rolling = RollingStore()
        self._seq = 0
        self._tasks: List["asyncio.Task"] = []
        self._clients: List["asyncio.StreamWriter"] = []
        self._handlers: Set["asyncio.Task"] = set()
        self._writer: Optional[CheckpointWriter] = None
        self._submitter: Optional[ScenarioSubmitter] = None
        self._closing: Optional["asyncio.Event"] = None

    # ------------------------------------------------------------------ #
    # Event emission
    # ------------------------------------------------------------------ #

    def _emit(self, line: str,
              sink: Optional["asyncio.StreamWriter"] = None) -> None:
        """One event line to the operator stream (and the client, if any)."""
        with self._emit_lock:
            self._out.write(line + "\n")
            self._out.flush()
        if sink is not None and not sink.is_closing():
            sink.write((line + "\n").encode("utf-8"))

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #

    def _handle_line(self, text: str,
                     sink: Optional["asyncio.StreamWriter"] = None) -> None:
        """Parse, journal and schedule one request line."""
        text = text.strip()
        if not text:
            return
        t = current_telemetry()
        try:
            obj = parse_line(text)
            if is_shutdown(obj):
                if t.enabled:
                    t.count("serve.shutdowns")
                self._emit(event_line("draining", pending=len(self._tasks)),
                           sink)
                if self._closing is not None:
                    self._closing.set()
                return
            request = build_request(obj, seq=self._seq,
                                    root_seed=self.seed,
                                    deduper=self._deduper)
        except ProtocolError as exc:
            if t.enabled:
                t.count("serve.errors")
            self._emit(event_line("error", error=str(exc)), sink)
            return
        self._seq += 1
        journal = None
        if self._writer is not None:
            self._writer.request(request.seq, request.id, request.label,
                                 request.seed,
                                 scenario_kwargs(request.scenario))
            journal = RequestJournal(self._writer, request.seq)
        self._emit(event_line("accepted", id=request.id, seq=request.seq,
                              label=request.label, seed=request.seed),
                   sink)
        self._schedule(request, journal, sink)

    def _schedule(self, request: ServeRequest,
                  journal: Optional[RequestJournal],
                  sink: Optional["asyncio.StreamWriter"] = None) -> None:
        """Bridge one request onto the shared pool via the submitter."""
        t = current_telemetry()
        if t.enabled:
            t.count("serve.requests")
        # The span brackets submission; the screening's own duration
        # lives in the campaign.scenario child span it re-parents here.
        with t.span("serve.request", seq=request.seq,
                    label=request.label) as span:
            line = ScreeningLine(request.scenario)
            lot = request.scenario.draw_lot(seed=request.seed,
                                            lot_id=request.label)
            future = self._submitter.submit(
                request.label, request.seed, line, lot,
                parent_span_id=span.span_id, journal=journal)
        task = asyncio.ensure_future(self._finish(request, future, sink))
        self._tasks.append(task)

    async def _finish(self, request: ServeRequest, future,
                      sink: Optional["asyncio.StreamWriter"]) -> None:
        """Await one screening and emit its result (or error) event."""
        t = current_telemetry()
        try:
            report = await asyncio.wrap_future(future)
        except PoolBrokenError as exc:
            if t.enabled:
                t.count("serve.pool_broken")
            _log.error("request %s: %s", request.label, exc)
            self._emit(event_line("error", id=request.id, seq=request.seq,
                                  label=request.label,
                                  error=f"PoolBrokenError: {exc}"), sink)
            return
        except Exception as exc:
            if t.enabled:
                t.count("serve.errors")
            _log.error("request %s failed: %s", request.label, exc)
            self._emit(event_line("error", id=request.id, seq=request.seq,
                                  label=request.label,
                                  error=f"{type(exc).__name__}: {exc}"),
                       sink)
            return
        self.rolling.add(request.seq, report)
        if t.enabled:
            t.count("serve.results")
            t.count("serve.devices", report.n_devices)
        if report.excursions:
            # An aborted wafer is operationally urgent (a line stoppage,
            # not a statistic), so it gets its own event ahead of the
            # result — and a counter in the deterministic block.
            if t.enabled:
                t.count("serve.excursions", report.excursions)
            self._emit(event_line("excursion", id=request.id,
                                  seq=request.seq, label=request.label,
                                  excursions=report.excursions,
                                  aborted=report.n_aborted,
                                  flow=report.flow),
                       sink)
        record = scenario_record(request.scenario, request.label,
                                 request.seed, report)
        self._emit(event_line("result", id=request.id, seq=request.seq,
                              record=record,
                              rolling=self.rolling.snapshot(request.label)),
                   sink)

    # ------------------------------------------------------------------ #
    # Resume
    # ------------------------------------------------------------------ #

    def _replay(self, state) -> None:
        """Re-schedule every journaled request with its shard journal.

        Finished requests replay entirely from journaled shards (no pool
        work); unfinished ones dispatch only their missing shards.  The
        labels are re-claimed in seq order and must match the journal —
        a mismatch means the checkpoint is corrupt.
        """
        for obj in state.requests:
            seq = int(obj["seq"])
            scenario = Scenario(**obj["scenario"])
            label = self._deduper.claim(scenario.resolved_label)
            if label != obj["label"]:
                raise ValueError(
                    f"checkpoint corrupt: request {seq} journaled label "
                    f"{obj['label']!r} but replays as {label!r}")
            request = ServeRequest(seq=seq, id=str(obj["id"]),
                                   scenario=scenario,
                                   seed=int(obj["seed"]), label=label)
            journal = RequestJournal(self._writer, seq,
                                     preloaded=state.shards.get(seq),
                                     digests=state.runs.get(seq))
            self._seq = max(self._seq, seq + 1)
            self._emit(event_line("resumed", id=request.id, seq=seq,
                                  label=label,
                                  journaled_shards=len(
                                      state.shards.get(seq, {}))))
            self._schedule(request, journal)
        t = current_telemetry()
        if t.enabled and state.requests:
            t.count("serve.resumed", len(state.requests))

    # ------------------------------------------------------------------ #
    # Front doors
    # ------------------------------------------------------------------ #

    async def _stdin_loop(self, loop) -> None:
        """Read request lines from the input stream until EOF/shutdown."""
        while self._closing is not None and not self._closing.is_set():
            line = await loop.run_in_executor(None, self._stdin.readline)
            if not line:
                break
            self._handle_line(line)

    async def _client(self, reader: "asyncio.StreamReader",
                      writer: "asyncio.StreamWriter") -> None:
        """Serve one TCP client; its events echo back on its connection.

        Returns when the client half-closes, at the EOF the session's end
        gives it by closing the connection, or when the connection dies;
        :meth:`run` awaits it, so it is never left for ``asyncio.run``
        to cancel.
        """
        t = current_telemetry()
        if t.enabled:
            t.count("serve.clients")
        self._clients.append(writer)
        handler = asyncio.current_task()
        self._handlers.add(handler)
        handler.add_done_callback(self._handlers.discard)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                self._handle_line(line.decode("utf-8"), sink=writer)
                await writer.drain()
        except ConnectionError:
            return  # reset by the peer, or closed at shutdown mid-drain
        # The client half-closed its write side; keep the connection open
        # so in-flight result events still reach it — shutdown closes it.

    # ------------------------------------------------------------------ #
    # The session
    # ------------------------------------------------------------------ #

    async def run(self) -> int:
        """Serve until EOF / shutdown command / SIGTERM, then finalize."""
        loop = asyncio.get_running_loop()
        self._closing = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._closing.set)
            except (NotImplementedError, RuntimeError):
                break
        # A SIGKILLed predecessor takes the multiprocessing resource
        # tracker down with it, stranding its shared-memory wafers in
        # /dev/shm; reclaim them before allocating our own.
        swept = sweep_stale_segments()
        if swept:
            _log.warning("swept %d stale shared-memory segment(s) left "
                         "by dead processes", len(swept))
        state = None
        if self.resume is not None:
            state = load_checkpoint(self.resume)
            if state.seed is not None:
                self.seed = int(state.seed)
        path = self.checkpoint or self.resume
        if path is not None:
            self._writer = CheckpointWriter(path, seed=self.seed)
        try:
            await self._session(loop, state)
            self._finalize()
            # _finalize closed every client connection: a handler still
            # reading gets EOF and returns.  A handler's own error was
            # already reported by its stream protocol.
            await asyncio.gather(*self._handlers, return_exceptions=True)
        finally:
            # Also on a refused resume: _replay raises on a corrupt
            # journal after the writer has opened it.
            if self._writer is not None:
                self._writer.close()
                self._writer = None
        return 0

    async def _session(self, loop, state) -> None:
        """Replay the journal, then serve requests until they drain."""
        with ScenarioSubmitter(self.plan, max_threads=self.max_inflight,
                               pool_retries=self.pool_retries) as submitter:
            self._submitter = submitter
            if state is not None:
                self._replay(state)
            server = None
            if self.socket is not None:
                host, port = self.socket
                server = await asyncio.start_server(self._client, host,
                                                    port)
                bound = server.sockets[0].getsockname()
                self._emit(event_line("listening", host=bound[0],
                                      port=int(bound[1])))
                await self._closing.wait()
                server.close()
                await server.wait_closed()
            else:
                await self._stdin_loop(loop)
            if self._tasks:
                await asyncio.gather(*self._tasks)

    def _finalize(self) -> None:
        """Emit the final ledger, write artefacts, close client sockets."""
        ledger = self.rolling.ledger() if len(self.rolling) else ""
        if self.ledger_path is not None:
            with open(self.ledger_path, "w", encoding="utf-8") as handle:
                handle.write(ledger)
        self._emit(event_line("ledger", requests=len(self.rolling),
                              table=ledger))
        for writer in self._clients:
            if not writer.is_closing():
                writer.close()
        self._clients.clear()
