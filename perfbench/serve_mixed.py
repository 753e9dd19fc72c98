"""The ``serve_mixed`` workload: ``ServeServer`` over TCP, closed loop.

An in-process ``ServeServer`` listens on a localhost TCP socket, with a
checkpoint journal and a 2-worker pool.  Two closed-loop clients each
send their next request only when the previous result arrives, replaying
one seeded order of a fixed mix of small requests, one of each kind per
block, all of one size (see :data:`TEMPLATES`).  Every request
carries an explicit seed and label, so its result does not depend on
which client's request arrived first.

The run is a sequence of rounds.  In each round a live server serves the
next :data:`ROUND_REQUESTS` requests of the stream and stops, then a
second server resumes from that round's complete journal.  Rates are
medians over the rounds, so a short slowdown of the host moves only the
rounds it falls in; latencies are quantiles over every request.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (OUT_DIR, AcceptTap, RunLedger, mask_digest, median,
                    peak_rss_mib, percentile90, split_seeds)
from layers import journal_counts
from repro.campaign import Campaign, Scenario
from repro.production import ExecutionPlan
from repro.production.pool import close_default_pool, get_default_pool
from repro.serve import ServeServer
from repro.serve.protocol import event_line

PLAN = ExecutionPlan(workers=2, shard_devices=128)
CLIENTS = 2
ROOT_SEED = 2026
#: Requests per round: seven whole blocks of the mix.
ROUND_REQUESTS = 56
#: A run has at least this many rounds, then adds rounds until the run
#: time is up.
MIN_ROUNDS = 3
#: Requests whose records fix the digest and ``tester_s_per_device``:
#: the first two rounds.
PREFIX = 2 * ROUND_REQUESTS
#: Cold server starts (pool fork and warm-up included) behind ``setup_s``.
SETUPS = 5
#: Scenarios per batch ``Campaign.run`` of the output check.
CHECK_BATCH = 16
TIMEOUT_S = 120.0

#: Dies per request, the same for every kind of request.
DEVICES = 256
#: Dies per request in ``--tiny`` runs: two shards, so the pool is used.
TINY_DEVICES = 192

#: The request mix: one request of each kind per block, (name, Scenario
#: kwargs).  Noise-free partial BIST runs at q=2; noisy partial BIST runs
#: at q=3, because at 0.05 LSB of noise q=2 rejects every SAR die and all
#: but a few pipeline dies.
TEMPLATES: List[Tuple[str, Dict]] = [
    ("full-noisy-deglitch", dict(transition_noise_lsb=0.05,
                                 deglitch_depth=3)),
    ("sar-q2", dict(architecture="sar", q=2)),
    ("sar-q3-noisy", dict(architecture="sar", q=3,
                          transition_noise_lsb=0.05)),
    ("pipeline-q2", dict(architecture="pipeline", q=2)),
    ("pipeline-q3-noisy", dict(architecture="pipeline", q=3,
                               transition_noise_lsb=0.05)),
    ("histogram", dict(method="histogram")),
    ("dynamic", dict(method="dynamic")),
    ("sprt-burst", dict(flow="sprt", excursion="burst")),
]


class RequestStream:
    """The seeded request sequence, shared by the clients (thread-safe).

    :meth:`next` hands out requests up to the current ``limit``; each
    round raises the limit by one round.
    """

    def __init__(self, seed: int, tiny: bool) -> None:
        mix_seed, request_seed = split_seeds(seed, 2)
        self._mix = np.random.default_rng(mix_seed)
        self._seeds = np.random.default_rng(request_seed)
        self._pending: List[int] = []
        self._tiny = tiny
        self._lock = threading.Lock()
        self.limit = 0
        self.issued: List[Dict] = []

    def next(self) -> Optional[Dict]:
        with self._lock:
            index = len(self.issued)
            if index >= self.limit:
                return None
            if not self._pending:
                # Each block holds every template once, in a seeded
                # order: the mix is fixed, the order is not.
                self._pending = list(self._mix.permutation(len(TEMPLATES)))
            name, kwargs = TEMPLATES[int(self._pending.pop())]
            kwargs = dict(kwargs, label=f"r{index:05d}-{name}",
                          n_devices=TINY_DEVICES if self._tiny else DEVICES)
            request = {"id": f"q{index}", "scenario": kwargs,
                       "seed": int(self._seeds.integers(1, 2 ** 31))}
            self.issued.append(request)
            return request


class EventSink:
    """The server's operator stream: announces the port, counts errors."""

    def __init__(self) -> None:
        self.listening = threading.Event()
        self.port: Optional[int] = None
        self.errors = 0

    def write(self, text: str) -> int:
        if self.port is None and '"listening"' in text:
            self.port = int(json.loads(text)["port"])
            self.listening.set()
        if '"event": "error"' in text:
            self.errors += 1
        return len(text)

    def flush(self) -> None:
        return None


class ServerThread:
    """A ``ServeServer`` session running its own event loop on a thread."""

    def __init__(self, journal: Path, *, resume: bool = False) -> None:
        self.sink = EventSink()
        options = (dict(resume=str(journal), stdin=io.StringIO(""))
                   if resume else
                   dict(socket=("127.0.0.1", 0), checkpoint=str(journal)))
        self.server = ServeServer(plan=PLAN, seed=ROOT_SEED, out=self.sink,
                                  **options)
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main,
                                        name="serve-session")

    def _main(self) -> None:
        try:
            asyncio.run(self.server.run())
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            self.error = exc
        finally:
            self.sink.listening.set()

    def start(self) -> "ServerThread":
        self._thread.start()
        return self

    def wait_listening(self) -> int:
        if not self.sink.listening.wait(TIMEOUT_S) or self.sink.port is None:
            raise RuntimeError(f"server did not start: {self.error!r}")
        return self.sink.port

    def join(self) -> None:
        self._thread.join(TIMEOUT_S)
        if self._thread.is_alive():
            raise RuntimeError("server session did not stop")
        if self.error is not None:
            raise RuntimeError(f"server session failed: {self.error!r}")

    def shutdown(self) -> None:
        """Ask the listening server to drain and stop; wait for it."""
        with socket.create_connection(("127.0.0.1", self.sink.port),
                                      timeout=TIMEOUT_S) as conn:
            conn.sendall(b'{"command": "shutdown"}\n')
            # Half-close so the server's handler for this connection ends;
            # the server closes its side once the ledger is out.
            conn.shutdown(socket.SHUT_WR)
            conn.makefile("rb").read()
        self.join()


@dataclass
class Round:
    """One live session and the resume from its journal."""

    wall: float
    results: Dict[str, Tuple[Dict, float]]
    ledger: str
    masks: Dict[str, np.ndarray]
    resume_wall: float = float("nan")
    resumed: Optional[str] = None
    journal_bytes: int = 0
    journal_hits: int = 0
    journal_lookups: int = 0

    @property
    def requests_per_s(self) -> float:
        return len(self.results) / self.wall

    @property
    def devices_per_s(self) -> float:
        return sum(r["devices"] for r, _ in self.results.values()) / self.wall

    @property
    def resume_requests_per_s(self) -> float:
        return len(self.results) / self.resume_wall


def _client(port: int, stream: RequestStream, results: Dict, spans: List,
            ledger: RunLedger) -> None:
    """One closed-loop client: send, wait for the result, repeat.

    Files ``label -> (record, latency)`` in ``results`` and the
    ``(sent, answered)`` times of every request in ``spans``.
    """
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=TIMEOUT_S) as conn:
            reader = conn.makefile("rb")
            while True:
                request = stream.next()
                if request is None:
                    break
                ledger.attempt()
                start = time.perf_counter()
                conn.sendall((json.dumps(request) + "\n").encode())
                event = {}
                while event.get("id") != request["id"] or \
                        event["event"] not in ("result", "error"):
                    line = reader.readline()
                    if not line:
                        raise ConnectionError("server closed the connection")
                    event = json.loads(line)
                spans.append((start, time.perf_counter()))
                if event["event"] == "error":
                    ledger.fail(f"{request['id']}: {event.get('error')}")
                else:
                    results[request["scenario"]["label"]] = (
                        event["record"], spans[-1][1] - start)
    except (OSError, ValueError) as exc:
        ledger.fail(f"client: {type(exc).__name__}: {exc}")


def _live(journal: Path, stream: RequestStream, ledger: RunLedger,
          tap: AcceptTap) -> Round:
    """Start a server, drive the next round of requests through the
    clients, stop it."""
    journal.unlink(missing_ok=True)
    session = ServerThread(journal).start()
    port = session.wait_listening()
    stream.limit += ROUND_REQUESTS
    results: Dict = {}
    spans: List[Tuple[float, float]] = []
    clients = [threading.Thread(target=_client, args=(
        port, stream, results, spans, ledger)) for _ in range(CLIENTS)]
    for client in clients:
        client.start()
    for client in clients:
        client.join(TIMEOUT_S)
    session.shutdown()
    wall = (max(e for _, e in spans) - min(s for s, _ in spans)
            if spans else float("nan"))
    return Round(wall, results, session.server.rolling.ledger(), tap.take(),
                 journal_bytes=journal.stat().st_size)


def _resume(journal: Path, into: Round, ledger: RunLedger, tap: AcceptTap,
            telemetry=None) -> None:
    """Resume a fresh server from the round's complete journal; timed."""
    before = journal_counts(telemetry) if telemetry is not None else (0, 0)
    with ledger.operation("resume"):
        start = time.perf_counter()
        session = ServerThread(journal, resume=True).start()
        session.join()
        into.resume_wall = time.perf_counter() - start
        into.resumed = session.server.rolling.ledger()
        for _ in range(session.sink.errors):
            ledger.fail("resumed request reported an error event")
    tap.take()
    if telemetry is not None:
        hits, lookups = journal_counts(telemetry)
        into.journal_hits = hits - before[0]
        into.journal_lookups = lookups - before[1]


def _rounds(journal: Path, stream: RequestStream, ledger: RunLedger,
            tap: AcceptTap, *, seconds: float = 0.0, count: int = 0,
            telemetry=None) -> List[Round]:
    """Rounds for ``seconds`` (and at least :data:`MIN_ROUNDS`), or
    exactly ``count`` rounds."""
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while (len(rounds) < count if count
           else len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline):
        done = _live(journal, stream, ledger, tap)
        _resume(journal, done, ledger, tap, telemetry)
        rounds.append(done)
    return rounds


def _cold_setups(journal: Path, count: int) -> List[float]:
    """Cold server starts, pool fork and warm-up included, for
    ``setup_s``; the pool of the last one stays up for the rounds."""
    times = []
    for _ in range(count):
        close_default_pool()
        start = time.perf_counter()
        session = ServerThread(journal).start()
        session.wait_listening()
        times.append(time.perf_counter() - start)
        session.shutdown()
        journal.unlink(missing_ok=True)
    return times


def _results(rounds: List[Round]) -> Dict[str, Tuple[Dict, float]]:
    return {label: value for r in rounds for label, value in r.results.items()}


def _normalised(record: Dict) -> Dict:
    return json.loads(event_line("result", record=record))["record"]


def _check_campaign(issued: List[Dict], results: Dict, tap: AcceptTap,
                    ledger: RunLedger) -> Dict[str, np.ndarray]:
    """Each served record equals a batch ``Campaign.run`` of the same
    scenario and seed; returns the campaign's accept masks."""
    done = [r for r in issued if r["scenario"]["label"] in results]
    masks: Dict[str, np.ndarray] = {}
    matches = True
    for lo in range(0, len(done), CHECK_BATCH):
        batch = done[lo:lo + CHECK_BATCH]
        with ledger.operation("campaign reference"):
            result = Campaign([Scenario(**r["scenario"], seed=r["seed"])
                               for r in batch], seed=ROOT_SEED).run(
                                   plan=PLAN)
            for request, record in zip(batch, result.records()):
                label = request["scenario"]["label"]
                matches &= _normalised(record) == results[label][0]
            masks.update(tap.take())
    ledger.check("serve_mixed.records_equal_campaign", matches and done)
    return masks


def _prefix_digest(issued: List[Dict], masks: Dict[str, np.ndarray]) -> str:
    labels = [r["scenario"]["label"] for r in issued[:PREFIX]]
    return mask_digest(masks.get(label, np.zeros(0, dtype=bool))
                       for label in labels)


def _tester_s_per_device(issued: List[Dict], results: Dict) -> float:
    records = [results[r["scenario"]["label"]][0] for r in issued[:PREFIX]
               if r["scenario"]["label"] in results]
    devices = sum(r["devices"] for r in records)
    return (sum(r["tester_seconds"] for r in records) / devices
            if devices else float("nan"))


def _check_outputs(issued: List[Dict], rounds: List[Round], tap: AcceptTap,
                   ledger: RunLedger, corrupt: bool) -> str:
    results = _results(rounds)
    live_masks = {k: m for r in rounds for k, m in r.masks.items()}
    if corrupt and results:
        label = min(results)
        record, latency = results[label]
        results[label] = (dict(record, accepted=record["accepted"] + 1),
                          latency)
        live_masks[label] = ~live_masks[label]
    ledger.check("serve_mixed.resumed_ledger_equals_live",
                 rounds and all(r.resumed == r.ledger for r in rounds))
    ledger.check("serve_mixed.enough_requests", len(results) >= PREFIX)
    campaign_masks = _check_campaign(issued, results, tap, ledger)
    digest = _prefix_digest(issued, live_masks)
    ledger.check("serve_mixed.accept_masks_equal_campaign",
                 digest == _prefix_digest(issued, campaign_masks))
    return digest


def _journal_path(seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    journal = OUT_DIR / f"serve-{seed}-{os.getpid()}.ckpt"
    journal.unlink(missing_ok=True)
    return journal


def run_untraced(seed: int, seconds: float, tiny: bool, corrupt: bool,
                 ledger: RunLedger, tap: AcceptTap):
    """The measured run: every end-to-end metric, tracing off."""
    journal = _journal_path(seed)
    try:
        setups = _cold_setups(journal, SETUPS)
        stream = RequestStream(seed, tiny)
        rounds = _rounds(journal, stream, ledger, tap, seconds=seconds)
        rss = peak_rss_mib(get_default_pool(PLAN.workers).worker_pids())
        digest = _check_outputs(stream.issued, rounds, tap, ledger, corrupt)
    finally:
        close_default_pool()
        journal.unlink(missing_ok=True)
    results = _results(rounds)
    latencies = [latency for _, latency in results.values()]
    metrics = {
        "setup_s": median(setups),
        "devices_per_s": median([r.devices_per_s for r in rounds]),
        "requests_per_s": median([r.requests_per_s for r in rounds]),
        "request_latency_p50_s": median(latencies),
        "request_latency_p90_s": percentile90(latencies),
        "resume_requests_per_s": median(
            [r.resume_requests_per_s for r in rounds]),
        "peak_rss_mb": rss,
        "tester_s_per_device": _tester_s_per_device(stream.issued, results),
    }
    info = {"requests": len(results), "rounds": len(rounds),
            "latency_samples": len(latencies), "accept_digest": digest}
    return metrics, info


def run_traced(seed: int, seconds: float, tiny: bool, corrupt: bool,
               ledger: RunLedger, tap: AcceptTap, tracing):
    """Untraced rounds, then as many rounds of the same requests traced;
    the traced rounds' outputs are checked."""
    journal = _journal_path(seed)
    close_default_pool()
    try:
        plain = _rounds(journal, RequestStream(seed, tiny), ledger, tap,
                        seconds=seconds / 2.0)
        # The traced rounds fork a fresh pool under the tracer.
        close_default_pool()
        stream = RequestStream(seed, tiny)
        with tracing() as telemetry:
            rounds = _rounds(journal, stream, ledger, tap, count=len(plain),
                             telemetry=telemetry)
        results = _results(rounds)
        ledger.check("serve_mixed.traced_equals_untraced",
                     {k: r for k, (r, _) in results.items()}
                     == {k: r for k, (r, _) in _results(plain).items()})
        digest = _check_outputs(stream.issued, rounds, tap, ledger, corrupt)
    finally:
        close_default_pool()
        journal.unlink(missing_ok=True)
    lookups = sum(r.journal_lookups for r in rounds)
    extra = {
        "trace_overhead_fraction": sum(r.wall for r in rounds)
        / sum(r.wall for r in plain) - 1.0,
        "serve.journal_bytes": sum(r.journal_bytes for r in rounds),
        "serve.replayed_shard_fraction": (
            sum(r.journal_hits for r in rounds) / lookups if lookups
            else 0.0),
        "request_latency_samples": len(results),
    }
    info = {"requests": len(results), "rounds": len(rounds),
            "accept_digest": digest}
    return telemetry, extra, info
