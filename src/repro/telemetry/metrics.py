"""Metrics export: schema-versioned JSON documents.

:func:`metrics_document` renders a :class:`~repro.telemetry.core.Telemetry`
collector as a plain dict with a hard determinism contract:

* ``schema``, ``context`` and ``counters`` depend only on *work done* —
  they are byte-identical for any execution plan (workers, chunk size,
  warm or cold worker pool).
* everything wall-clock **or scheduling-dependent** — timers, spans,
  worker identities, gauges, and the pool lifecycle counters — is
  isolated under the single ``timing`` key, so CI can diff two runs'
  documents after dropping that one block.

The pool telemetry added with the persistent
:class:`~repro.production.pool.WorkerPool` lives entirely inside
``timing`` because its values describe *how* the run was scheduled, not
what work was done:

``timing.scheduling``
    Counters whose names start with ``pool.`` —
    ``pool.workers_spawned`` (processes forked; zero on a warm pool),
    ``pool.tasks_dispatched`` (tasks sent to worker processes) and
    ``pool.tasks_reused_worker`` (tasks that landed on a worker which
    had already executed at least one task — the dispatch-reuse rate of
    the persistent pool).  These vary with the worker count and pool
    warmth by definition, so they must not pollute the deterministic
    top-level ``counters`` block.
``timing.gauges``
    :class:`~repro.telemetry.core.GaugeStat` last/peak levels, e.g.
    ``pool.queue_depth`` — how deep the shared work queue got while
    scenario threads interleaved their shards into one pool.

Shared-memory traffic shows up as ``pool.shm_attach`` spans (one per
worker per segment, under that worker's shard span) and a parent-side
``pool.shm_detach`` span when the owning buffer unlinks.

The streaming service (``repro serve``) counts its request stream under
``serve.*`` in the deterministic ``counters`` block — they describe the
work stream, not the scheduling geometry: ``serve.requests`` /
``serve.results`` / ``serve.devices`` (accepted requests, completed
screenings and their devices), ``serve.errors`` (malformed lines and
failed screenings), ``serve.clients`` (TCP connections served),
``serve.resumed`` (requests replayed from a checkpoint journal),
``serve.excursions`` (wafer-level excursion aborts reported by finished
requests, each also emitted as its own ``excursion`` event),
``serve.shutdowns`` (shutdown commands honoured) and
``serve.pool_broken`` (requests that exhausted their pool-rebuild
retries).  Each request also opens a ``serve.request`` span with the
screening's ``campaign.scenario`` span nested beneath it.  The pool
failure path itself stays under the ``pool.`` prefix (and therefore
``timing.scheduling``): ``pool.broken`` (a worker died and the pool was
evicted) and ``pool.rebuilt`` (a submission retried against a fresh
pool).

Every batch engine counts its work under ``engine.<name>.*`` (``bist``,
``partial``, ``histogram``, ``dynamic``): ``shards``, ``devices``,
``samples``, and ``event_path_devices`` / ``stream_path_devices`` —
devices whose chunks ran on crossing events / on materialised sample
matrices (the dynamic suite always materialises them; noisy chip-mode
shards count like any other).  One full-BIST key describes the stream
path's input rather than its volume:

``engine.bist.stream_events``
    Code-change events the stream path built (samples whose code
    differs from the previous sample's), next to ``engine.bist.samples``.
    The ratio events / samples is the event density the path's cost
    depends on; for a 6-bit flash at 64 samples per code it is about 5%
    at 0.05 LSB of transition noise, 47% at 0.5 LSB and 81% at 2 LSB.

The adaptive test flows (:mod:`repro.flows`) count under ``flow.*`` in
the deterministic ``counters`` block — the sequential station's
decisions and the wafer-level SPC verdicts depend only on the drawn
population, never on the execution geometry:

``flow.saved_samples``
    Per-code observations the sequential station skipped relative to the
    fixed full-length test (the paper's tester-time currency): the codes
    after each rejected device's first failing code.
``flow.devices_stopped_early``
    Devices rejected at a failing code before the last code.
``flow.stop_quartile.q1`` … ``flow.stop_quartile.q4``
    Histogram of stop positions by quartile of the code axis — the
    deterministic stand-in for a stop-time distribution (q1 = stopped in
    the first quarter of the codes; every accepted device counts in q4).
``flow.excursions_detected`` / ``flow.excursions_missed``
    Wafers the SPC monitor aborted, and wafers the excursion changed
    that it let finish (drift's wafer 0 is drawn clean and never
    counts).
``flow.aborted_devices``
    Devices left untested (and rejected) on aborted wafers.

The operator-facing per-scenario pivot built from screening reports
(no clocks) is
:meth:`~repro.production.store.ResultStore.metrics_table`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

from repro.telemetry.core import SCHEMA_VERSION, Telemetry

__all__ = [
    "metrics_document",
    "render_metrics",
    "write_metrics",
]


#: Counter-name prefixes that describe scheduling rather than work done;
#: routed under ``timing.scheduling`` to keep the top-level ``counters``
#: block byte-identical across execution geometries.
SCHEDULING_COUNTER_PREFIXES = ("pool.",)


def metrics_document(telemetry: Telemetry,
                     context: Optional[Mapping[str, Any]] = None
                     ) -> Dict[str, Any]:
    """Render a collector as the ``repro.metrics/1`` document."""
    counters: Dict[str, int] = {}
    scheduling: Dict[str, int] = {}
    for name in sorted(telemetry.counters):
        target = (scheduling
                  if name.startswith(SCHEDULING_COUNTER_PREFIXES)
                  else counters)
        target[name] = telemetry.counters[name]
    gauges = getattr(telemetry, "gauges", {})
    timing: Dict[str, Any] = {
        "timers": {name: telemetry.timers[name].as_dict()
                   for name in sorted(telemetry.timers)},
        "gauges": {name: gauges[name].as_dict()
                   for name in sorted(gauges)},
        "scheduling": scheduling,
        "spans": [span.as_dict() for span in telemetry.spans],
    }
    return {
        "schema": SCHEMA_VERSION,
        "context": dict(context or {}),
        "counters": counters,
        "timing": timing,
    }


def render_metrics(document: Dict[str, Any]) -> str:
    """Serialise a metrics document with deterministic key order."""
    return json.dumps(document, indent=2, sort_keys=True)


def write_metrics(path: str, telemetry: Telemetry,
                  context: Optional[Mapping[str, Any]] = None) -> None:
    """Write the metrics document for ``telemetry`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_metrics(metrics_document(telemetry, context)))
        handle.write("\n")
