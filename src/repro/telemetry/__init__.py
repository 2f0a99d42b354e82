"""Cross-process telemetry: tracing, metrics, run reports, perf gates.

The observability spine of the reproduction.  Four pieces:

* :mod:`repro.telemetry.tracing` — context-propagating spans over the
  campaign → scenario → task → iteration hierarchy, flushed to
  a crash-tolerant per-run JSONL sink.
* :mod:`repro.telemetry.metrics` — counters/gauges/histograms for the
  signals the system already computes (cache hits, retries, store
  latency), drained into the same sink.
* :mod:`repro.telemetry.report` — folds a run's trace into
  ``run_report.json`` and exports Chrome ``trace_event`` flame views.
* :mod:`repro.telemetry.regression` — grades fresh ``BENCH_*.json``
  summaries against the checked-in ``benchmarks/baseline.json``.

Everything is stdlib-only and a near-free no-op while no run is armed.
"""

from repro.telemetry import metrics
from repro.telemetry.tracing import (
    ENV_VAR,
    Span,
    SpanContext,
    TelemetryDegradedWarning,
    TelemetryRun,
    annotate,
    annotated,
    attach,
    begin_span,
    current_context,
    enabled,
    flush,
    propagate,
    span,
    start_run,
)

__all__ = [
    "ENV_VAR",
    "Span",
    "SpanContext",
    "TelemetryDegradedWarning",
    "TelemetryRun",
    "annotate",
    "annotated",
    "attach",
    "begin_span",
    "current_context",
    "enabled",
    "flush",
    "metrics",
    "propagate",
    "span",
    "start_run",
]
