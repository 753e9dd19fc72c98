"""The traced run: wrappers around each layer's public functions.

A :class:`Tracer` replaces the functions and methods listed in
:data:`FUNCTIONS` and :data:`METHODS` with wrappers that open a
``repro.telemetry`` span for every call while a telemetry session is
active, and do nothing extra otherwise.  A function is replaced in every
``repro`` module that holds it, because engines import kernel functions
by name.  Install the tracer before the worker pool forks: the workers
then inherit the wrappers, and their spans come home through the pool's
existing ``absorb_worker`` path.

From the span forest this module derives each layer's self time (a
span's duration minus the named spans below it in the same process),
the per-layer metrics of the benchmark, and a Chrome trace-event file
that any trace viewer opens.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry.core import current_telemetry

#: Module-level functions, timed as ``<metric>`` spans.
FUNCTIONS: List[Tuple[str, str, str]] = [
    ("kernel.shared_crossing_indices", "repro.core.kernel",
     "shared_crossing_indices"),
    ("kernel.packed_crossing_events", "repro.core.kernel",
     "packed_crossing_events"),
    ("kernel.batch_quantise_rows", "repro.core.kernel",
     "batch_quantise_rows"),
    ("kernel.batch_msb_reference", "repro.core.kernel",
     "batch_msb_reference"),
    ("decision.decide_counts", "repro.core.decision", "decide_counts"),
    ("batch_engine.batch_deglitch", "repro.production.batch_engine",
     "batch_deglitch"),
    ("flows.code_pass_matrix", "repro.flows.sequential",
     "code_pass_matrix"),
    ("flows.sprt_decide", "repro.flows.sequential", "sprt_decide"),
    ("serve.parse", "repro.serve.protocol", "parse_line"),
    ("serve.parse", "repro.serve.protocol", "build_request"),
    ("serve.load_checkpoint", "repro.serve.checkpoint", "load_checkpoint"),
]

#: Methods, timed as ``<metric>`` spans.
METHODS: List[Tuple[str, str, str, str]] = [
    ("batch_engine.lsb_process", "repro.production.batch_engine",
     "BatchLsbProcessor", "process"),
    ("batch_engine.run_shard", "repro.production.batch_engine",
     "BatchBistEngine", "run_shard"),
    ("partial_batch.run_shard", "repro.production.partial_batch",
     "BatchPartialBistEngine", "run_shard"),
    ("analysis_batch.histogram.run_shard", "repro.production.analysis_batch",
     "BatchHistogramTest", "run_shard"),
    ("analysis_batch.dynamic.run_shard", "repro.production.analysis_batch",
     "BatchDynamicSuite", "run_shard"),
    ("lot.draw", "repro.campaign.scenario", "Scenario", "draw_lot"),
    ("lot.good_mask", "repro.production.lot", "Wafer", "good_mask"),
    ("line.screen_lot", "repro.production.line", "ScreeningLine",
     "screen_lot"),
    ("pool.dispatch", "repro.production.pool", "WorkerPool", "dispatch"),
    ("pool.warm_up", "repro.production.pool", "WorkerPool", "warm_up"),
    ("serve.journal_append", "repro.serve.checkpoint", "CheckpointWriter",
     "_append"),
    ("serve.rolling_add", "repro.serve.store", "RollingStore", "add"),
]

#: Counters the wrappers add beside the program's own.
_TASK_BYTES = "bench.pool.task_bytes"
_SPRT_CODES = "bench.sprt.total_codes"
_SPRT_OBSERVED = "bench.sprt.observed_codes"
_LOOKUPS = "bench.journal.lookups"
_HITS = "bench.journal.hits"
_SUBMIT_WAIT = "bench.campaign.submit_wait"


def _span_attrs() -> Dict[str, Any]:
    return {"bench": True, "ts": time.perf_counter(), "pid": os.getpid(),
            "tid": threading.get_native_id()}


def _traced(name: str, fn: Callable,
            before: Optional[Callable] = None,
            after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span named ``name`` while telemetry is on."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t = current_telemetry()
        if not t.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(t, args, kwargs)
        with t.span(name, **_span_attrs()):
            result = fn(*args, **kwargs)
        if after is not None:
            after(t, result)
        return result

    return traced


def _count_task_bytes(t, args, kwargs) -> None:
    """Pickled size of every task payload a dispatch will submit."""
    from repro.production.pool import as_slice_ref

    _pool, func, arg_tuples = args[:3]
    metas = kwargs.get("metas") or [None] * len(arg_tuples)
    total = 0
    for task, meta in zip(arg_tuples, metas):
        shipped = tuple(as_slice_ref(a) or a for a in task)
        total += len(pickle.dumps((func, shipped, True, meta)))
    t.count(_TASK_BYTES, total)


def _count_sprt_codes(t, decision) -> None:
    t.count(_SPRT_CODES, int(decision.total_codes))
    t.count(_SPRT_OBSERVED, int(decision.observed_codes))


_AFTER = {"flows.sprt_decide": _count_sprt_codes}
_BEFORE = {"pool.dispatch": _count_task_bytes}


class Tracer:
    """Install and remove the layer wrappers (see the module docstring)."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        self._submitted: Dict[int, float] = {}

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = _traced(name, original, _BEFORE.get(name),
                              _AFTER.get(name))
            # Replace the function wherever a repro module holds it.
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._set(cls, attr, _traced(name, getattr(cls, attr),
                                         _BEFORE.get(name),
                                         _AFTER.get(name)))
        self._install_counters()
        return self

    def _install_counters(self) -> None:
        """Count-only hooks: journal hits and submit-to-start waits."""
        from repro.campaign.driver import ScenarioSubmitter
        from repro.serve.checkpoint import RequestJournal

        lookup = RequestJournal.lookup

        @functools.wraps(lookup)
        def counted_lookup(journal, run, index):
            hit, value = lookup(journal, run, index)
            t = current_telemetry()
            if t.enabled:
                t.count(_LOOKUPS)
                t.count(_HITS, int(hit))
            return hit, value

        submit = ScenarioSubmitter.submit
        run = ScenarioSubmitter._run
        submitted = self._submitted

        @functools.wraps(submit)
        def timed_submit(submitter, label, seed, line, lot, **kwargs):
            submitted[id(lot)] = time.perf_counter()
            return submit(submitter, label, seed, line, lot, **kwargs)

        @functools.wraps(run)
        def timed_run(submitter, label, seed, line, lot, *args):
            start = submitted.pop(id(lot), None)
            t = current_telemetry()
            if start is not None and t.enabled:
                t.record_timer(_SUBMIT_WAIT, time.perf_counter() - start)
            return run(submitter, label, seed, line, lot, *args)

        self._set(RequestJournal, "lookup", counted_lookup)
        self._set(ScenarioSubmitter, "submit", timed_submit)
        self._set(ScenarioSubmitter, "_run", timed_run)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._submitted.clear()


# ---------------------------------------------------------------------- #
# Span forest analysis
# ---------------------------------------------------------------------- #

class SpanForest:
    """The collected spans with inherited process ids and self times."""

    def __init__(self, spans) -> None:
        self.spans = list(spans)
        self.children: Dict[Optional[int], List] = defaultdict(list)
        for span in self.spans:
            self.children[span.parent_id].append(span)
        # Parents precede children in the list (spans are recorded on
        # open, worker forests are grafted parent-first).
        own = os.getpid()
        self.pid: Dict[int, int] = {}
        for span in self.spans:
            parent = self.pid.get(span.parent_id, own)
            self.pid[span.span_id] = int(span.attrs.get("pid", parent))

    def self_time(self, span) -> float:
        """Duration minus the nearest named spans below, same process."""
        pid = self.pid[span.span_id]
        covered = 0.0
        stack = list(self.children[span.span_id])
        while stack:
            child = stack.pop()
            if self.pid[child.span_id] != pid:
                continue
            if child.attrs.get("bench"):
                covered += child.elapsed_s
            else:
                stack.extend(self.children[child.span_id])
        return span.elapsed_s - covered

    def layer_seconds(self) -> Dict[str, float]:
        """Summed self time of every named layer."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.attrs.get("bench"):
                totals[span.name] += self.self_time(span)
        return totals

    def total(self, name: str, bench: bool = False) -> float:
        """Summed duration of the spans named ``name``; with ``bench``,
        only the wrappers' spans (the program may open its own span under
        the same name inside the wrapped call)."""
        return sum(s.elapsed_s for s in self.spans if s.name == name
                   and (not bench or s.attrs.get("bench")))

    def chrome_events(self) -> List[Dict[str, Any]]:
        """The forest as Chrome trace-event ``X`` events.

        Program spans record no start time; they are placed at their
        earliest timed descendant, else at their parent's start.
        """
        earliest: Dict[int, Optional[float]] = {}
        for span in reversed(self.spans):
            times = [earliest[c.span_id] for c in self.children[span.span_id]
                     if earliest.get(c.span_id) is not None]
            own = span.attrs.get("ts")
            if own is not None:
                times.append(own)
            earliest[span.span_id] = min(times) if times else None
        start: Dict[int, float] = {}
        tid: Dict[int, int] = {}
        for span in self.spans:
            ts = earliest[span.span_id]
            if ts is None:
                ts = start.get(span.parent_id, 0.0)
            start[span.span_id] = ts
            tid[span.span_id] = int(span.attrs.get(
                "tid", tid.get(span.parent_id, 0)))
        origin = min(start.values(), default=0.0)
        events = []
        for pid in sorted(set(self.pid.values())):
            label = "benchmark" if pid == os.getpid() else "pool worker"
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": f"{label} {pid}"}})
        for span in self.spans:
            args = {k: v for k, v in span.attrs.items()
                    if k not in ("bench", "ts", "pid", "tid")}
            events.append({
                "ph": "X", "name": span.name, "cat": (
                    "layer" if span.attrs.get("bench") else "program"),
                "pid": self.pid[span.span_id], "tid": tid[span.span_id],
                "ts": (start[span.span_id] - origin) * 1e6,
                "dur": span.elapsed_s * 1e6,
                "args": {k: v if isinstance(v, (int, float, str, bool))
                         else str(v) for k, v in args.items()}})
        return events


def write_chrome_trace(forest: SpanForest, path: Path,
                       meta: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": forest.chrome_events(),
                   "displayTimeUnit": "ms", "otherData": meta}, handle)


#: Per-layer metrics, in the order BENCHMARK.json lists them, with units.
PER_LAYER_UNITS: Dict[str, str] = {
    "kernel.shared_crossing_indices.s": "s",
    "kernel.packed_crossing_events.s": "s",
    "kernel.batch_quantise_rows.s": "s",
    "kernel.batch_msb_reference.s": "s",
    "decision.decide_counts.s": "s",
    "batch_engine.batch_deglitch.s": "s",
    "batch_engine.lsb_process.s": "s",
    "batch_engine.run_shard.self_s": "s",
    "batch_engine.stream_path_fraction": "ratio",
    "partial_batch.run_shard.s": "s",
    "analysis_batch.histogram.run_shard.s": "s",
    "analysis_batch.dynamic.run_shard.s": "s",
    "lot.draw.s": "s",
    "lot.good_mask.s": "s",
    "line.screen_lot.self_s": "s",
    "line.unexplained_fraction": "ratio",
    "line.retest_fraction": "ratio",
    "pool.dispatch.s": "s",
    "pool.queue_wait_s": "s",
    "pool.tasks": "count",
    "pool.task_bytes": "bytes",
    "pool.shm_attach.s": "s",
    "pool.warm_worker_fraction": "ratio",
    "pool.warm_up.s": "s",
    "flows.code_pass_matrix.s": "s",
    "flows.sprt_decide.s": "s",
    "flows.saved_samples_fraction": "ratio",
    "campaign.submit_wait_s": "s",
    "serve.parse.s": "s",
    "serve.journal_append.s": "s",
    "serve.journal_bytes": "bytes",
    "serve.rolling_add.s": "s",
    "serve.load_checkpoint.s": "s",
    "serve.replayed_shard_fraction": "ratio",
    "trace_overhead_fraction": "ratio",
    "failed_fraction": "ratio",
    "request_latency_samples": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(telemetry, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from one traced session.

    ``extra`` carries the rows only the workload knows (trace overhead,
    journal size, replayed shards, failures, sample counts).
    """
    forest = SpanForest(telemetry.spans)
    seconds = forest.layer_seconds()
    counters = telemetry.counters
    timers = telemetry.timers
    values: Dict[str, float] = {}
    # ``<layer>.s`` and ``<layer>.self_s`` rows are summed self times.
    for name in PER_LAYER_UNITS:
        for suffix in (".s", ".self_s"):
            if name.endswith(suffix):
                values[name] = seconds.get(name[:-len(suffix)], 0.0)
    screen_total = forest.total("line.screen_lot", bench=True)
    values["line.unexplained_fraction"] = _ratio(
        values["line.screen_lot.self_s"], screen_total)
    values["batch_engine.stream_path_fraction"] = _ratio(
        counters.get("engine.bist.stream_path_devices", 0),
        counters.get("engine.bist.devices", 0))
    values["line.retest_fraction"] = _ratio(
        counters.get("line.station.retest.in", 0),
        counters.get("line.devices", 0))
    wait = timers.get("executor.queue_wait")
    values["pool.queue_wait_s"] = wait.total_s if wait else 0.0
    tasks = counters.get("pool.tasks_dispatched", 0)
    values["pool.tasks"] = tasks
    values["pool.task_bytes"] = counters.get(_TASK_BYTES, 0)
    values["pool.shm_attach.s"] = forest.total("pool.shm_attach")
    values["pool.warm_worker_fraction"] = _ratio(
        counters.get("pool.tasks_reused_worker", 0), tasks)
    values["flows.saved_samples_fraction"] = _ratio(
        counters.get(_SPRT_CODES, 0) - counters.get(_SPRT_OBSERVED, 0),
        counters.get(_SPRT_CODES, 0))
    submit_wait = timers.get(_SUBMIT_WAIT)
    values["campaign.submit_wait_s"] = (submit_wait.total_s
                                        if submit_wait else 0.0)
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER_UNITS}


def journal_counts(telemetry) -> Tuple[int, int]:
    """``(hits, lookups)`` of shard-journal lookups so far."""
    return (telemetry.counters.get(_HITS, 0),
            telemetry.counters.get(_LOOKUPS, 0))
