"""Checkpoint/resume journal of the streaming serve front door.

The execution layer's determinism contract makes every unit of work
replayable by index: a shard result is a pure function of its arguments,
and the sequence of :meth:`ShardExecutor.map` runs one screening makes is
a pure function of its ``(scenario, seed)``.  The checkpoint therefore
journals the accepted requests, the digest of every executor run's
inputs and the result of every completed ``(request seq, run index,
shard index)``, and a resumed server simply *re-screens every journaled
request* with its journal installed: journaled shards replay instantly,
unfinished shards dispatch to the pool, and the resumed ledger converges
byte-identical to an uninterrupted run.

Replay is verified, not trusted.  A journal of another format version is
refused, and each resumed executor run must reproduce the digest its
journal recorded (engine class and configuration, shard context, shard
bounds and noise seed — see :func:`repro.production.execution.
run_digest`); otherwise :class:`CheckpointMismatchError` is raised
instead of merging results another configuration computed.

File format: append-only JSONL (one object per line, flushed per line so
each completed shard survives a SIGKILL via the page cache).  Lines are
``{"kind": "serve", ...}`` (the header: format version and root seed),
``{"kind": "request", ...}`` (one per accepted request, written before
any of its shards), ``{"kind": "run", ...}`` (one per executor run of a
request, with its input ``digest``, written before the run's shards) and
``{"kind": "shard", ...}`` (one per completed shard, its result
pickled+zlib+base64 in ``data``).  A SIGKILL can tear at most the final
line, so :func:`load_checkpoint` tolerates — and only tolerates — an
unparseable *last* line.

The shard payloads are Python pickles: load checkpoints you wrote
yourself, like any other pickle file.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointMismatchError",
    "CheckpointState",
    "CheckpointWriter",
    "RequestJournal",
    "decode_result",
    "encode_result",
    "load_checkpoint",
]

#: Journal format version.  ``/3``: full-BIST shard results carry the
#: per-device ``stop_codes``, which a ``/2`` result would lack on replay.
CHECKPOINT_VERSION = "repro.serve/3"

_MISSING = object()


class CheckpointMismatchError(ValueError):
    """A journal does not describe the run that tries to replay it.

    Raised for a journal of another format version, and when a resumed
    executor run's input digest differs from the one its journal recorded
    (another seed, configuration, or code version), instead of merging
    shard results computed for different inputs.
    """


def encode_result(value: Any) -> str:
    """One shard result as a compact single-line ASCII payload."""
    raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def decode_result(text: str) -> Any:
    """Inverse of :func:`encode_result`."""
    return pickle.loads(zlib.decompress(base64.b64decode(
        text.encode("ascii"))))


class CheckpointWriter:
    """Append-only, per-line-flushed journal of a serve session.

    Opening an existing non-empty file (the ``--resume`` path) appends to
    it, so a twice-killed server still resumes from one journal; a fresh
    file gets the version/seed header first.  Writes are serialised by a
    lock so concurrent request threads never interleave bytes within a
    line — the only corruption a SIGKILL can leave is a torn final line.
    """

    def __init__(self, path: str, *, seed: int) -> None:
        self.path = path
        self._lock = threading.Lock()
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            # Drop a SIGKILL-torn final line before appending: left in
            # place it would glue onto the next record and turn into
            # mid-file corruption on the *second* resume.
            with open(path, "r+b") as handle:
                data = handle.read()
                if not data.endswith(b"\n"):
                    cut = data.rfind(b"\n") + 1
                    handle.truncate(cut)
                    fresh = cut == 0
        self._handle = open(path, "a", encoding="utf-8")
        if fresh:
            self._append({"kind": "serve",
                          "version": CHECKPOINT_VERSION,
                          "seed": int(seed)})

    def _append(self, obj: Dict[str, Any]) -> None:
        line = json.dumps(obj, separators=(",", ":"))
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def request(self, seq: int, rid: str, label: str, seed: int,
                scenario: Dict[str, Any]) -> None:
        """Journal one accepted request (before any of its shards)."""
        self._append({"kind": "request", "seq": int(seq), "id": rid,
                      "label": label, "seed": int(seed),
                      "scenario": scenario})

    def run(self, seq: int, run: int, digest: str) -> None:
        """Journal the input digest of one executor run of a request."""
        self._append({"kind": "run", "seq": int(seq), "run": int(run),
                      "digest": str(digest)})

    def shard(self, seq: int, run: int, shard: int, value: Any) -> None:
        """Journal one completed shard result."""
        self._append({"kind": "shard", "seq": int(seq), "run": int(run),
                      "shard": int(shard), "data": encode_result(value)})

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


@dataclass
class CheckpointState:
    """Everything :func:`load_checkpoint` recovers from a journal."""

    seed: Optional[int]
    requests: List[Dict[str, Any]]
    shards: Dict[int, Dict[Tuple[int, int], Any]]
    #: Input digest of every journaled executor run, by request seq.
    runs: Dict[int, Dict[int, str]]


def load_checkpoint(path: str) -> CheckpointState:
    """Parse a checkpoint journal, tolerating a SIGKILL-torn last line.

    Unparseable content anywhere *but* the final line is real corruption
    and raises; duplicate ``(seq, run, shard)`` entries (a pool-broken
    retry re-recorded a shard) keep the last occurrence — by determinism
    the payloads are identical anyway.  A journal whose header names
    another :data:`CHECKPOINT_VERSION` (or that has records but no
    header) raises :class:`CheckpointMismatchError`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    seed: Optional[int] = None
    version: Optional[str] = None
    requests: Dict[int, Dict[str, Any]] = {}
    shards: Dict[int, Dict[Tuple[int, int], Any]] = {}
    runs: Dict[int, Dict[int, str]] = {}
    last = len(lines) - 1
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            kind = obj.get("kind")
            if kind == "serve":
                version = obj.get("version")
                if version != CHECKPOINT_VERSION:
                    raise CheckpointMismatchError(
                        f"checkpoint {path!r} is format {version!r}; this "
                        f"version resumes {CHECKPOINT_VERSION!r} only")
                seed = obj.get("seed")
            elif version is None:
                raise CheckpointMismatchError(
                    f"checkpoint {path!r} has records but no "
                    f"{CHECKPOINT_VERSION!r} header")
            elif kind == "request":
                requests[int(obj["seq"])] = obj
            elif kind == "run":
                runs.setdefault(int(obj["seq"]), {})[int(obj["run"])] = \
                    str(obj["digest"])
            elif kind == "shard":
                value = decode_result(obj["data"])
                shards.setdefault(int(obj["seq"]), {})[
                    (int(obj["run"]), int(obj["shard"]))] = value
            else:
                raise ValueError(f"unknown checkpoint line kind {kind!r}")
        except CheckpointMismatchError:
            raise
        except (ValueError, KeyError, TypeError, EOFError,
                zlib.error, pickle.UnpicklingError) as exc:
            if index == last:
                break  # torn tail: the write the SIGKILL interrupted
            raise ValueError(
                f"corrupt checkpoint {path!r} at line {index + 1}: "
                f"{exc}") from exc
    return CheckpointState(
        seed=seed,
        requests=[requests[seq] for seq in sorted(requests)],
        shards=shards,
        runs=runs)


class RequestJournal:
    """Per-request shard journal, speaking the executor's journal protocol.

    Installed around one request's screening via
    :func:`~repro.production.execution.journal_scope`;
    :meth:`ShardExecutor.map <repro.production.execution.ShardExecutor.map>`
    calls :meth:`begin_run` once per executor run (the run counter names
    the run), :meth:`lookup` per shard before dispatching and
    :meth:`record` per freshly computed shard.  Records are held in
    memory for replay and appended to the session's
    :class:`CheckpointWriter` (when there is one) for crash durability.
    ``digests`` preloads the input digests of journaled runs; a run whose
    digest differs raises :class:`CheckpointMismatchError`.

    :meth:`begin_attempt` resets the run counter *without* dropping
    recorded results — the in-process retry path after a
    :class:`~repro.production.pool.PoolBrokenError`, where the screening
    re-runs from the top and must replay everything already journaled.
    """

    def __init__(self, writer: Optional[CheckpointWriter], seq: int,
                 preloaded: Optional[Dict[Tuple[int, int], Any]] = None,
                 digests: Optional[Dict[int, str]] = None) -> None:
        self._writer = writer
        self._seq = int(seq)
        self._results: Dict[Tuple[int, int], Any] = dict(preloaded or {})
        self._digests: Dict[int, str] = dict(digests or {})
        self._runs = 0
        self._lock = threading.Lock()

    def begin_attempt(self) -> None:
        """Restart the run numbering for a from-the-top re-screen."""
        with self._lock:
            self._runs = 0

    # -- executor journal protocol -------------------------------------- #

    def begin_run(self, n_tasks: int, digest: Optional[str] = None) -> int:
        with self._lock:
            run = self._runs
            self._runs += 1
            journaled = self._digests.get(run)
            if journaled is None and digest is not None:
                self._digests[run] = digest
        if journaled is None:
            if digest is not None and self._writer is not None:
                self._writer.run(self._seq, run, digest)
        elif digest is not None and digest != journaled:
            raise CheckpointMismatchError(
                f"request {self._seq} run {run}: its inputs (digest "
                f"{digest}) differ from the journaled ones ({journaled}); "
                f"refusing to replay shards of another configuration")
        return run

    def lookup(self, run: int, index: int) -> Tuple[bool, Any]:
        value = self._results.get((run, index), _MISSING)
        if value is _MISSING:
            return False, None
        return True, value

    def record(self, run: int, index: int, value: Any) -> None:
        with self._lock:
            self._results[(run, index)] = value
        if self._writer is not None:
            self._writer.shard(self._seq, run, index, value)
