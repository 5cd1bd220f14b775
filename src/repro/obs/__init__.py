"""repro.obs — lightweight observability for the measurement stack.

Three primitives, all with zero-cost no-op defaults:

* :class:`MetricsRegistry` — counters, gauges, and ms-bucketed
  histograms, aggregated by dotted name and exportable as JSON.
* :class:`TraceLog` — a bounded structured log of typed events
  (circuit built/failed, probe lost, leg cache hit, retry round, heap
  compaction, ...).
* :class:`SpanTracer` — hierarchical sim-time intervals (campaign →
  pair → leg → circuit build → probe round) exportable as Chrome
  trace-event JSON for Perfetto.
* :class:`EventBus` — live severity-leveled events stamped with sim-
  and wall-time, backed by a bounded :class:`FlightRecorder` ring and
  fanned out to sinks (JSONL, console, the shard progress queue).

All of these are *mergeable*: shard workers snapshot their sinks and the
parent folds them into one registry/log/tracer with counter-sum,
gauge-max, histogram-bucket-sum, and shard-tagging semantics, so
observability survives the fork boundary of ``ShardedCampaign``.

Components (``Simulator``, ``OnionProxy``, ``Relay``, ``EchoClient``)
each carry ``metrics``/``trace`` attributes defaulting to
:data:`NULL_METRICS` / :data:`NULL_TRACE`; call
``MeasurementHost.enable_observability()`` to wire one live registry,
trace, and span tracer through an entire deployment.
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
from repro.obs.trace import (
    CIRCUIT_BUILT,
    CIRCUIT_FAILED,
    HEAP_COMPACTION,
    NULL_TRACE,
    NullTraceLog,
    PAIR_FAILED,
    PAIR_MEASURED,
    PROBE_LOST,
    PROBE_SENT,
    RETRY_ROUND,
    STREAM_ATTACHED,
    STREAM_FAILED,
    TraceEvent,
    TraceLog,
    categorize_failure,
)

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
    "NULL_TRACE",
    "NullMetricsRegistry",
    "NullSpanTracer",
    "NullTraceLog",
    "SpanHandle",
    "SpanTracer",
    "TraceEvent",
    "TraceLog",
    "categorize_failure",
    "CAMPAIGN_SPAN",
    "PAIR_SPAN",
    "LEG_SPAN",
    "CIRCUIT_BUILD_SPAN",
    "PROBE_ROUND_SPAN",
    "CIRCUIT_BUILT",
    "CIRCUIT_FAILED",
    "STREAM_ATTACHED",
    "STREAM_FAILED",
    "PROBE_SENT",
    "PROBE_LOST",
    "RETRY_ROUND",
    "HEAP_COMPACTION",
    "PAIR_MEASURED",
    "PAIR_FAILED",
]
