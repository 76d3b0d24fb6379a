"""Per-request metrics, time series and histograms.

Several of the paper's figures are not simple cost totals: Figure 5b is a
histogram of the per-request access-cost difference between Rotor-Push and
Random-Push, and some analyses need sliding-window cost averages.  This module
provides the small numeric helpers for those, so experiments stay declarative.
The series read a run's record columns (:attr:`RunResult.per_request`)
directly: the access cost of a request is its level plus one, its adjustment
cost its swap count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.algorithms.base import RunResult
from repro.core.cost import RequestRecordColumns
from repro.exceptions import ExperimentError

__all__ = [
    "access_cost_series",
    "adjustment_cost_series",
    "total_cost_series",
    "moving_average",
    "per_request_cost_difference",
    "Histogram",
    "histogram_of_differences",
]


def access_cost_series(result: RunResult) -> List[int]:
    """Return the per-request access costs of a run (requires kept records)."""
    return [level + 1 for level in _records(result).levels]


def adjustment_cost_series(result: RunResult) -> List[int]:
    """Return the per-request adjustment costs of a run (requires kept records)."""
    return list(_records(result).swaps)


def total_cost_series(result: RunResult) -> List[int]:
    """Return the per-request total costs of a run (requires kept records)."""
    records = _records(result)
    return [level + 1 + swaps for level, swaps in zip(records.levels, records.swaps)]


def _records(result: RunResult) -> RequestRecordColumns:
    if result.n_requests and not result.per_request:
        raise ExperimentError(
            "per-request records were not kept for this run; "
            "re-run with keep_records=True"
        )
    return result.per_request


def moving_average(values: Sequence[float], window: int) -> List[float]:
    """Return the sliding-window average of ``values`` (window clipped at the start)."""
    if window <= 0:
        raise ExperimentError(f"window must be positive, got {window}")
    averages: List[float] = []
    running = 0.0
    for index, value in enumerate(values):
        running += float(value)
        if index >= window:
            running -= float(values[index - window])
            averages.append(running / window)
        else:
            averages.append(running / (index + 1))
    return averages


def per_request_cost_difference(
    first: RunResult,
    second: RunResult,
    which: str = "access",
) -> List[int]:
    """Return the per-request cost difference ``first - second``.

    Both runs must have served the same number of requests (normally the very
    same sequence).  ``which`` selects ``"access"``, ``"adjustment"`` or
    ``"total"`` costs.
    """
    selectors = {
        "access": access_cost_series,
        "adjustment": adjustment_cost_series,
        "total": total_cost_series,
    }
    if which not in selectors:
        raise ExperimentError(f"which must be one of {sorted(selectors)}, got {which!r}")
    series_first = selectors[which](first)
    series_second = selectors[which](second)
    if len(series_first) != len(series_second):
        raise ExperimentError(
            "runs served different numbers of requests "
            f"({len(series_first)} vs {len(series_second)})"
        )
    return [a - b for a, b in zip(series_first, series_second)]


@dataclass(frozen=True)
class Histogram:
    """A simple integer-valued histogram with probability normalisation.

    Attributes
    ----------
    counts:
        Mapping from value to occurrence count.
    total:
        Total number of samples.
    """

    counts: Dict[int, int]
    total: int

    def probability(self, value: int) -> float:
        """Return the empirical probability of ``value``."""
        if self.total == 0:
            return 0.0
        return self.counts.get(value, 0) / self.total

    def mean(self) -> float:
        """Return the sample mean."""
        if self.total == 0:
            return 0.0
        return sum(value * count for value, count in self.counts.items()) / self.total

    def support(self) -> List[int]:
        """Return the sorted list of observed values."""
        return sorted(self.counts)

    def as_rows(self) -> List[Tuple[int, int, float]]:
        """Return ``(value, count, probability)`` rows sorted by value."""
        return [(value, self.counts[value], self.probability(value)) for value in self.support()]


def histogram_of_differences(differences: Sequence[int]) -> Histogram:
    """Build a :class:`Histogram` from integer samples (e.g. per-request cost differences)."""
    return Histogram(counts=dict(Counter(map(int, differences))), total=len(differences))
