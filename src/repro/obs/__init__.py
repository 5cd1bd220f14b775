"""repro.obs — lightweight observability for the measurement stack.

Three primitives, all with zero-cost no-op defaults:

* :class:`MetricsRegistry` — counters, gauges, and ms-bucketed
  histograms, aggregated by dotted name and exportable as JSON.
* :class:`SpanTracer` — hierarchical sim-time intervals (campaign →
  pair → leg → circuit build → probe round) exportable as Chrome
  trace-event JSON for Perfetto.
* :class:`EventBus` — live severity-leveled events stamped with sim-
  and wall-time, backed by a bounded :class:`FlightRecorder` ring and
  fanned out to sinks (JSONL, console, the shard progress queue).

All of these — and :class:`~repro.core.dataset.ProvenanceLog`, and
:class:`~repro.serve.telemetry.ServeTelemetry` over the three — cross a
fork boundary the same way: ``snapshot()`` is plain picklable data, and
``merge_snapshot(snap, shard=None)`` folds it into a live sink
(counter-sum, gauge-max, histogram-bucket-sum, bus counts summed, rows
adopted and tagged ``shard``) and returns the sink, so a shipper or a
merger is one loop over the sinks (DESIGN, "Merge semantics").

Components (``Simulator``, ``OnionProxy``, ``Relay``, ``EchoClient``)
each carry a ``metrics`` attribute defaulting to :data:`NULL_METRICS`;
call ``MeasurementHost.enable_observability()`` to wire one live
registry, span tracer, provenance log and event bus through an entire
deployment.
"""

from repro.obs.events import (
    DEBUG,
    ERROR,
    INFO,
    NULL_EVENTS,
    WARNING,
    ConsoleSink,
    Event,
    EventBus,
    FlightRecorder,
    JsonlSink,
    NullEventBus,
    ProgressTracker,
    event_from_dict,
    format_event,
    severity_level,
    severity_name,
)
from repro.obs.registry import (
    DEFAULT_BUCKET_EDGES_MS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.obs.spans import (
    CAMPAIGN_SPAN,
    CIRCUIT_BUILD_SPAN,
    LEG_SPAN,
    NULL_SPANS,
    NullSpanTracer,
    PAIR_SPAN,
    PROBE_ROUND_SPAN,
    SpanHandle,
    SpanTracer,
)
from repro.util.errors import categorize_failure

__all__ = [
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
    "ConsoleSink",
    "Event",
    "EventBus",
    "FlightRecorder",
    "JsonlSink",
    "NULL_EVENTS",
    "NullEventBus",
    "ProgressTracker",
    "event_from_dict",
    "format_event",
    "severity_level",
    "severity_name",
    "DEFAULT_BUCKET_EDGES_MS",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_SPANS",
    "NullMetricsRegistry",
    "NullSpanTracer",
    "SpanHandle",
    "SpanTracer",
    "categorize_failure",
    "CAMPAIGN_SPAN",
    "PAIR_SPAN",
    "LEG_SPAN",
    "CIRCUIT_BUILD_SPAN",
    "PROBE_ROUND_SPAN",
]
