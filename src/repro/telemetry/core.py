"""Telemetry core: counters, timers and span traces with a strict no-op off state.

The instrumentation seam for the whole production stack.  A single
ambient :class:`Telemetry` object (installed with
:func:`telemetry_session`) collects three kinds of signal:

``counters``
    Monotonic integer totals (devices screened, shards run, event-path
    hits).  Counters record *work done*, never wall-clock, so their
    values are invariant under the execution plan — the same lot sharded
    over 1 or 8 workers produces byte-identical counter blocks.

``timers``
    Named wall-clock accumulators (:class:`TimerStat`: count / total /
    min / max).  Everything non-deterministic lives here.

``spans``
    A parent/child trace (:class:`SpanRecord`) of the run's structure:
    a campaign span contains scenario spans, which contain line and
    engine spans, which contain per-shard spans — possibly absorbed
    from worker processes.

The default ambient object is :data:`NULL_TELEMETRY`, whose methods do
nothing and allocate nothing; library code guards hot loops with
``if t.enabled:`` so the disabled path costs one attribute check.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "NULL_TELEMETRY",
    "GaugeStat",
    "NullTelemetry",
    "SpanRecord",
    "Telemetry",
    "TimerHandle",
    "TimerStat",
    "current_telemetry",
    "telemetry_session",
]

#: Version tag stamped into every metrics document this package emits.
SCHEMA_VERSION = "repro.metrics/1"


@dataclass
class TimerStat:
    """Accumulated wall-clock statistics for one named timer."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0

    def record(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    def merge(self, other: "TimerStat") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimerStat":
        stat = cls(count=int(data["count"]), total_s=float(data["total_s"]),
                   max_s=float(data["max_s"]))
        if stat.count:
            stat.min_s = float(data["min_s"])
        return stat


@dataclass
class GaugeStat:
    """Last/peak value of one named gauge (e.g. pool queue depth).

    Gauges are *scheduling* observations — how deep the work queue got,
    never how much work was done — so, like timers, they live under the
    ``timing`` block of the metrics document and carry no determinism
    guarantee.
    """

    last: float = 0.0
    max_value: float = -math.inf

    def record(self, value: float) -> None:
        self.last = float(value)
        if value > self.max_value:
            self.max_value = float(value)

    def merge(self, other: "GaugeStat") -> None:
        self.last = other.last
        self.max_value = max(self.max_value, other.max_value)

    def as_dict(self) -> Dict[str, Any]:
        return {"last": self.last,
                "max": self.max_value if self.max_value > -math.inf
                else 0.0}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GaugeStat":
        return cls(last=float(data["last"]), max_value=float(data["max"]))


@dataclass
class SpanRecord:
    """One node of the trace tree."""

    span_id: int
    name: str
    parent_id: Optional[int]
    elapsed_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "elapsed_s": self.elapsed_s,
            "attrs": dict(self.attrs),
        }


class TimerHandle:
    """Context manager handed out by :meth:`Telemetry.timer`.

    Exposes ``elapsed_s`` after the ``with`` block so callers can reuse
    the measurement (e.g. the CLI's elapsed line) without a second
    clock read.
    """

    __slots__ = ("_telemetry", "_name", "_start", "elapsed_s")

    def __init__(self, telemetry: Optional["Telemetry"], name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._start = 0.0
        self.elapsed_s = 0.0

    def __enter__(self) -> "TimerHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.elapsed_s = time.perf_counter() - self._start
        if self._telemetry is not None:
            self._telemetry.record_timer(self._name, self.elapsed_s)


class _NullContext:
    """Shared do-nothing context manager for the disabled path.

    ``__enter__`` and ``__exit__`` are static, so a ``with`` statement
    binds no method objects for them; that binding was about a quarter
    of a disabled touchpoint's cost.  They ignore their arguments, so
    callers that pass the instance explicitly, such as
    :class:`contextlib.ExitStack`, work too.  The arguments are optional
    parameters rather than ``*args``, so a call builds no tuple (about
    an eighth of a disabled touchpoint).
    """

    __slots__ = ()
    elapsed_s = 0.0
    span_id: Any = None
    attrs: Dict[str, Any] = {}

    @staticmethod
    def __enter__(_self: Any = None) -> "_NullContext":
        return _NULL_CONTEXT

    @staticmethod
    def __exit__(_first: Any = None, _second: Any = None,
                 _third: Any = None, _fourth: Any = None) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullTelemetry:
    """The disabled telemetry object: stateless, allocation-free no-ops.

    A singleton (:data:`NULL_TELEMETRY`) shared by every uninstrumented
    run.  All mutating methods return immediately; the context-manager
    factories hand back one shared null context.
    """

    __slots__ = ()
    enabled = False
    progress_every = 0

    def count(self, name: str, n: int = 1) -> None:
        return None

    def record_timer(self, name: str, elapsed_s: float) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def timer(self, name: str) -> _NullContext:
        return _NULL_CONTEXT

    def span(self, name: str, **attrs: Any) -> _NullContext:
        return _NULL_CONTEXT

    def under_span(self, span_id: Any) -> _NullContext:
        return _NULL_CONTEXT

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def absorb_worker(self, record: Dict[str, Any],
                      queue_wait_s: float = 0.0) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()


class _SpanHandle:
    """Context manager for an open span on an enabled :class:`Telemetry`."""

    __slots__ = ("_telemetry", "_record", "_start")

    def __init__(self, telemetry: "Telemetry", record: SpanRecord) -> None:
        self._telemetry = telemetry
        self._record = record
        self._start = 0.0

    @property
    def elapsed_s(self) -> float:
        return self._record.elapsed_s

    @property
    def span_id(self) -> int:
        return self._record.span_id

    @property
    def attrs(self) -> Dict[str, Any]:
        return self._record.attrs

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span while it is open."""
        self._record.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        self._start = time.perf_counter()
        self._telemetry._stack.append(self._record.span_id)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._record.elapsed_s = time.perf_counter() - self._start
        self._telemetry._stack.pop()


class Telemetry:
    """An enabled telemetry collector.

    Parameters
    ----------
    progress_every:
        Emit a progress log line every N shards from the executor
        (0 = never).  Carried here so the executor needs no extra
        plumbing: the ambient telemetry *is* the observability config.
    """

    enabled = True

    def __init__(self, progress_every: int = 0) -> None:
        self.progress_every = int(progress_every)
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, TimerStat] = {}
        self.gauges: Dict[str, GaugeStat] = {}
        self.spans: List[SpanRecord] = []
        self._lock = threading.RLock()
        self._local = threading.local()
        self._next_span_id = 1

    @property
    def _stack(self) -> List[int]:
        """The *calling thread's* open-span stack.

        Per-thread so campaign scenario threads can nest their own span
        trees concurrently; a new thread starts with an empty stack and
        adopts a parent explicitly via :meth:`under_span`.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    # Recording (thread-safe: shards of several scenario threads may
    # report into one collector concurrently)
    # ------------------------------------------------------------------ #

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def record_timer(self, name: str, elapsed_s: float) -> None:
        """Fold one measurement into the named :class:`TimerStat`."""
        with self._lock:
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = TimerStat()
            stat.record(elapsed_s)

    def set_gauge(self, name: str, value: float) -> None:
        """Record an instantaneous level into the named :class:`GaugeStat`."""
        with self._lock:
            stat = self.gauges.get(name)
            if stat is None:
                stat = self.gauges[name] = GaugeStat()
            stat.record(value)

    def timer(self, name: str) -> TimerHandle:
        """Context manager timing one block into the named timer."""
        return TimerHandle(self, name)

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a trace span nested under the calling thread's active span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        with self._lock:
            record = SpanRecord(self._next_span_id, name, parent,
                                attrs=dict(attrs))
            self._next_span_id += 1
            self.spans.append(record)
        return _SpanHandle(self, record)

    @contextmanager
    def under_span(self, span_id: Optional[int]) -> Iterator[None]:
        """Adopt an existing span as the calling thread's parent.

        A worker thread starts with an empty span stack; wrapping its
        work in ``with t.under_span(campaign_span.span_id):`` grafts the
        thread's spans under the right parent.  ``None`` is accepted and
        is a no-op (e.g. when the parent span came from a disabled
        telemetry session).
        """
        if span_id is None:
            yield
            return
        stack = self._stack
        stack.append(span_id)
        try:
            yield
        finally:
            stack.pop()

    # ------------------------------------------------------------------ #
    # Cross-process plumbing
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Any]:
        """Serialise this collector for transport back from a worker."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {name: stat.as_dict()
                           for name, stat in self.timers.items()},
                "gauges": {name: stat.as_dict()
                           for name, stat in self.gauges.items()},
                "spans": [span.as_dict() for span in self.spans],
            }

    def absorb_worker(self, record: Dict[str, Any],
                      queue_wait_s: float = 0.0) -> None:
        """Merge a worker's :meth:`snapshot` into this collector.

        Counters add, timers and gauges merge, and the worker's span
        forest is grafted under the *calling thread's* active span with
        fresh ids.  The measured pool queue wait (submit-to-start, on
        the shared system monotonic clock) lands in the
        ``executor.queue_wait`` timer.
        """
        stack = self._stack
        parent = stack[-1] if stack else None
        with self._lock:
            for name, value in record.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) \
                    + int(value)
            for name, data in record.get("timers", {}).items():
                stat = self.timers.get(name)
                if stat is None:
                    self.timers[name] = TimerStat.from_dict(data)
                else:
                    stat.merge(TimerStat.from_dict(data))
            for name, data in record.get("gauges", {}).items():
                stat = self.gauges.get(name)
                if stat is None:
                    self.gauges[name] = GaugeStat.from_dict(data)
                else:
                    stat.merge(GaugeStat.from_dict(data))
            id_map: Dict[int, int] = {}
            for span in record.get("spans", []):
                new_id = self._next_span_id
                self._next_span_id += 1
                id_map[span["span_id"]] = new_id
                mapped_parent = (id_map.get(span["parent_id"], parent)
                                 if span["parent_id"] is not None
                                 else parent)
                self.spans.append(SpanRecord(
                    new_id, span["name"], mapped_parent,
                    elapsed_s=span["elapsed_s"],
                    attrs=dict(span["attrs"])))
        if queue_wait_s > 0.0:
            self.record_timer("executor.queue_wait", queue_wait_s)


# ---------------------------------------------------------------------- #
# Ambient session
# ---------------------------------------------------------------------- #

_current: Any = NULL_TELEMETRY


def current_telemetry() -> Any:
    """The ambient telemetry object (default: :data:`NULL_TELEMETRY`)."""
    return _current


@contextmanager
def telemetry_session(telemetry: Any) -> Iterator[Any]:
    """Install ``telemetry`` as the ambient collector for a ``with`` block."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous
