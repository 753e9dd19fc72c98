"""Telemetry: counters, timers and span traces across the production stack.

One instrumentation seam for the whole reproduction.  Install an
enabled :class:`Telemetry` with :func:`telemetry_session` and every
layer below — :class:`~repro.production.execution.ShardExecutor`, the
four batch engines, :class:`~repro.production.line.ScreeningLine` and
:class:`~repro.campaign.driver.Campaign` — reports what it did
(counters), how long it took (timers/spans) and, optionally, periodic
progress lines through the ``repro`` logger hierarchy.  The default
ambient object is :data:`NULL_TELEMETRY`: a strict no-op, so
uninstrumented runs pay nothing and stay bit-identical.
"""

from repro.telemetry.core import (
    NULL_TELEMETRY,
    SCHEMA_VERSION,
    GaugeStat,
    NullTelemetry,
    SpanRecord,
    Telemetry,
    TimerHandle,
    TimerStat,
    current_telemetry,
    telemetry_session,
)
from repro.telemetry.log import ShardProgress, configure_logging, get_logger
from repro.telemetry.metrics import (
    metrics_document,
    render_metrics,
    write_metrics,
)

__all__ = [
    "NULL_TELEMETRY",
    "SCHEMA_VERSION",
    "GaugeStat",
    "NullTelemetry",
    "ShardProgress",
    "SpanRecord",
    "Telemetry",
    "TimerHandle",
    "TimerStat",
    "configure_logging",
    "current_telemetry",
    "get_logger",
    "metrics_document",
    "render_metrics",
    "telemetry_session",
    "write_metrics",
]
