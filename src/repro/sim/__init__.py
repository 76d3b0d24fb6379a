"""Simulation engine, trial payloads and their fan-out, and result tables."""

from repro import _lazy_exports

__all__ = [
    "AggregatedOutcome",
    "Histogram",
    "ResultTable",
    "SpecSource",
    "TrialOutcome",
    "TrialPayload",
    "TrialRunner",
    "map_ordered",
    "resolve_n_jobs",
    "shutdown_persistent_pool",
    "simulate_stream",
    "access_cost_series",
    "adjustment_cost_series",
    "histogram_of_differences",
    "per_request_cost_difference",
    "simulate",
    "summarise_values",
    "total_cost_series",
]

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.sim.engine": ("simulate", "simulate_stream"),
    "repro.sim.metrics": (
        "Histogram",
        "access_cost_series",
        "adjustment_cost_series",
        "histogram_of_differences",
        "per_request_cost_difference",
        "total_cost_series",
    ),
    "repro.sim.parallel": ("map_ordered", "resolve_n_jobs", "shutdown_persistent_pool"),
    "repro.sim.results": ("ResultTable", "summarise_values"),
    "repro.sim.runner": (
        "AggregatedOutcome",
        "SpecSource",
        "TrialOutcome",
        "TrialPayload",
        "TrialRunner",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
