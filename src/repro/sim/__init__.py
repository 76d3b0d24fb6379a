"""Simulation engine, multi-trial runners and result tables."""

from repro.sim.engine import (
    simulate,
    simulate_algorithm_on_sequence,
    simulate_stream,
    simulate_workload,
)
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
    SequenceSource,
    SpecSource,
    TrialOutcome,
    TrialPayload,
    TrialRunner,
    compare_algorithms,
)

__all__ = [
    "AggregatedOutcome",
    "Histogram",
    "ResultTable",
    "SequenceSource",
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
    "compare_algorithms",
    "histogram_of_differences",
    "moving_average",
    "per_request_cost_difference",
    "simulate",
    "simulate_algorithm_on_sequence",
    "simulate_workload",
    "summarise_values",
    "total_cost_series",
]
