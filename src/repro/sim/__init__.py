"""Simulation engine, trial payloads and their fan-out, and result tables."""

from repro.sim.engine import simulate, simulate_stream
from repro.sim.metrics import (
    Histogram,
    access_cost_series,
    adjustment_cost_series,
    histogram_of_differences,
    moving_average,
    per_request_cost_difference,
    total_cost_series,
)
from repro.sim.parallel import map_ordered, resolve_n_jobs, shutdown_persistent_pool
from repro.sim.results import ResultTable, summarise_values
from repro.sim.runner import (
    AggregatedOutcome,
    SpecSource,
    TrialOutcome,
    TrialPayload,
    TrialRunner,
)

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
    "moving_average",
    "per_request_cost_difference",
    "simulate",
    "summarise_values",
    "total_cost_series",
]
