"""Streaming "virtual fab" service: the long-running serve front door.

Everything below :mod:`repro.campaign` is batch — draw a lot, screen it,
print a report.  This package is the streaming mode the roadmap asked
for: ``repro serve`` keeps the persistent worker pool warm and screens a
*continuous* stream of Scenario-tagged wafer requests, arriving on stdin
as JSONL or from many concurrent TCP clients (``--socket``), with
incremental JSONL results against a rolling ledger and checkpoint/resume
of half-finished work.

:mod:`repro.serve.protocol`
    The JSONL wire protocol: request parsing (the request vocabulary is
    exactly the frozen :class:`~repro.campaign.scenario.Scenario`
    dataclass), campaign-identical seed/label resolution, and the
    response event lines.

:mod:`repro.serve.server`
    :class:`ServeServer`, the asyncio front door.  Scheduling is a thin
    bridge: each accepted request is submitted through the same
    :class:`~repro.campaign.driver.ScenarioSubmitter` the interleaved
    campaign path uses, so in-flight requests' shards drain through one
    shared pool work queue.

:mod:`repro.serve.store`
    :class:`~repro.serve.store.RollingStore` — monotonic running totals
    per result event, and the final ledger of the reports in arrival
    order (byte-identical to the equivalent batch
    :meth:`Campaign.run <repro.campaign.driver.Campaign.run>`).

:mod:`repro.serve.checkpoint`
    The append-only shard journal.  Because every unit of work is
    replayable by ``(scenario seed, run index, shard index)``, a killed
    server restarted with ``--resume`` re-screens its journaled requests
    with journaled shards replaying instantly, dispatching only what the
    killed run never finished — and converges to the identical ledger.

Quick start::

    echo '{"scenario": {"n_devices": 512, "n_bits": 6}}' \\
        | python -m repro.cli serve --workers 2

Telemetry: the server counts ``serve.requests``, ``serve.results``,
``serve.errors``, ``serve.devices``, ``serve.clients``,
``serve.resumed``, ``serve.shutdowns`` and ``serve.pool_broken``, and
opens a ``serve.request`` span per request under which the screening's
``campaign.scenario`` span nests.
"""

from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointState,
    CheckpointWriter,
    RequestJournal,
    load_checkpoint,
)
from repro.serve.protocol import (
    ProtocolError,
    ServeRequest,
    build_request,
    event_line,
    parse_line,
)
from repro.serve.server import ServeServer
from repro.serve.store import RollingStore

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointState",
    "CheckpointWriter",
    "ProtocolError",
    "RequestJournal",
    "RollingStore",
    "ServeRequest",
    "ServeServer",
    "build_request",
    "event_line",
    "load_checkpoint",
    "parse_line",
]
