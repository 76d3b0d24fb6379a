"""Unified observability for every repro runtime (batch, dist, serve).

The package has four small parts:

* :mod:`repro.telemetry.registry` — counters, gauges, fixed-bucket
  histograms in a :class:`MetricsRegistry`; a process-wide default registry
  plus :func:`use_registry` injection for tests and a :class:`NullRegistry`
  benchmark floor.
* :mod:`repro.telemetry.trace` — deterministic span IDs and a ring-buffered
  :class:`Tracer`.
* :mod:`repro.telemetry.export` — the Prometheus/JSON HTTP endpoint, the
  ``metrics`` protocol frame, and the ``repro metrics`` scraper.
* :mod:`repro.telemetry.snapshots` — the periodic JSONL snapshot writer.

Instrumentation is always-on and observational only: it never touches
seeds, ordering, payloads, or any pinned byte-identity.
"""

from repro import _lazy_exports

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "MetricsSnapshotWriter",
    "NullRegistry",
    "Span",
    "Tracer",
    "default_registry",
    "default_tracer",
    "metrics_frame",
    "render_prometheus",
    "scrape",
    "set_default_registry",
    "set_default_tracer",
    "span_id",
    "start_metrics_server",
    "use_registry",
    "use_tracer",
]

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.telemetry.export": (
        "MetricsHTTPServer",
        "metrics_frame",
        "scrape",
        "start_metrics_server",
    ),
    "repro.telemetry.registry": (
        "DEFAULT_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricError",
        "MetricsRegistry",
        "NullRegistry",
        "default_registry",
        "render_prometheus",
        "set_default_registry",
        "use_registry",
    ),
    "repro.telemetry.snapshots": ("MetricsSnapshotWriter",),
    "repro.telemetry.trace": (
        "Span",
        "Tracer",
        "default_tracer",
        "set_default_tracer",
        "span_id",
        "use_tracer",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
