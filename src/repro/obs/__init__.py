"""Observability: metrics, run telemetry, reports and resource accounting.

The paper's evaluation is an exercise in cost accounting — simulations,
epochs and seconds traded for accuracy (Table 5.1, Figure 5.8).  This
package is the substrate that accounting flows through at runtime:

* :mod:`repro.obs.metrics` — counters / gauges / histogram timers
  (:class:`MetricsRegistry`), cheap enough to leave permanently in hot
  paths (no-op when disabled), with a process-global instance
  (:data:`METRICS`) for simulator-level counters;
* :mod:`repro.obs.telemetry` — the :class:`RunTelemetry` event stream
  training, cross-validation and the explorer emit into, and the one
  phase timer: nested ``/``-joined phase paths with wall time and,
  while tracemalloc traces them, peak/net allocation;
* :mod:`repro.obs.report` — :class:`TelemetryReport`, rendering a run
  summary as Markdown or the stable JSON document CI diffs; its phase
  table is also what the ``repro profile`` subcommand prints;
* :mod:`repro.obs.atomicio` — write-temp-then-rename file writes, so an
  interrupted run never leaves a truncated artifact (telemetry
  documents, metrics snapshots, caches, checkpoints);
* :mod:`repro.obs.resources` — ``getrusage``-based CPU/RSS/wall
  accounting (:class:`ResourceMeter`), the per-cell cost meter behind
  the campaign orchestrator's ``campaign.*`` accounting.

Event and metric names are documented in ``docs/observability.md``.
This package deliberately imports nothing from the rest of ``repro`` so
every layer (core, simulators, CLI) can depend on it without cycles.
"""

from .atomicio import (
    atomic_write_bytes,
    atomic_write_pickle,
    atomic_write_text,
)
from .metrics import (
    METRICS,
    MetricsRegistry,
    TimerStats,
    disable_metrics,
    enable_metrics,
)
from .report import TelemetryReport
from .resources import ResourceMeter, ResourceUsage
from .telemetry import (
    NULL_TELEMETRY,
    PhaseStats,
    RunTelemetry,
    TelemetryEvent,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "PhaseStats",
    "ResourceMeter",
    "ResourceUsage",
    "RunTelemetry",
    "TelemetryEvent",
    "TelemetryReport",
    "TimerStats",
    "atomic_write_bytes",
    "atomic_write_pickle",
    "atomic_write_text",
    "disable_metrics",
    "enable_metrics",
]
