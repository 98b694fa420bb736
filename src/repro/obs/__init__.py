"""Observability for the PRES pipeline: tracing, metrics, exporters.

PRES's claim lives or dies on its exploration loop, and replay systems
live or die on their introspection tooling (rr and iReplayer both make
the same point) — this package is that tooling for the reproduction:

* :mod:`repro.obs.tracer` — a span/event tracer with a context-manager
  API and near-zero overhead when disabled; worker-process spans merge
  deterministically into the parent timeline.
* :mod:`repro.obs.metrics` — counters, gauges and histograms
  (attempts/sec, cache hit ratio, divergence depth, constraint-set
  growth, per-rung budget burn), snapshotable as JSON and printable as
  an ASCII summary.  Counters and histograms are updated only at
  schedule-deterministic points, so they are identical for every
  ``jobs`` value at a fixed ``batch_size``.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON that Perfetto /
  ``chrome://tracing`` open directly, one track per replay worker.
* :mod:`repro.obs.inspect` — the ``pres inspect`` text renderer: attempt
  timeline, phase table, per-category totals.
* :mod:`repro.obs.session` — the :class:`ObsSession` handle the rest of
  the codebase threads around, with :data:`NULL_SESSION` as the
  zero-cost default.

Entry points: ``reproduce(..., obs=...)`` (or ``run_request(...,
obs=...)``) in code, and ``pres reproduce --trace-out t.json
--metrics-out m.json`` plus ``pres inspect t.json`` on the command
line.  See ``docs/observability.md`` for the guided tour.
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    load_chrome_trace,
    save_chrome_trace,
    validate_trace_event,
)
from repro.obs.inspect import (
    render_attempt_timeline,
    render_phases,
    render_totals,
    render_trace,
)
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.session import NULL_SESSION, ObsSession
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_SESSION",
    "NULL_SPAN",
    "NULL_TRACER",
    "ObsSession",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "chrome_trace_events",
    "load_chrome_trace",
    "render_attempt_timeline",
    "render_phases",
    "render_totals",
    "render_trace",
    "save_chrome_trace",
    "validate_trace_event",
]
