"""Series and entropies of the one-parameter locality sweeps (Figures 3 and 4).

Both helpers work on any single-key :class:`repro.plans.SweepPlan` and its
table: the Q2 ``p`` sweep of :func:`repro.experiments.build_q2_plan` and the
Q3 ``a`` sweep of :func:`repro.experiments.build_q3_plan` alike.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.entropy import empirical_entropy
from repro.plans import SweepPlan
from repro.sim.results import ResultTable

__all__ = ["sequence_entropies", "series_for_plot"]


def series_for_plot(table: ResultTable, metric: str = "mean_total_cost") -> Dict[str, List[float]]:
    """Return per-algorithm series over the sweep grid for plotting.

    The sweep column is the table's first column (a sweep table lists its
    point columns first); values are ordered by increasing sweep value.
    """
    column = table.columns[0]
    values = sorted({float(row[column]) for row in table.rows})
    series: Dict[str, List[float]] = {}
    for algorithm in sorted({str(row["algorithm"]) for row in table.rows}):
        points: List[float] = []
        for value in values:
            match = [
                row
                for row in table.rows
                if row["algorithm"] == algorithm and float(row[column]) == value
            ]
            points.append(float(match[0][metric]) if match else 0.0)
        series[algorithm] = points
    return series


def sequence_entropies(plan: SweepPlan, n_samples: int = 1) -> Dict[float, float]:
    """Return the mean empirical entropy of the workload at every sweep point.

    Sample ``s`` of a point is ``config.n_requests`` requests of the point's
    bound workload seeded ``config.base_seed + s`` (trial ``s``'s stream).
    The paper reports these entropies to substantiate that its locality
    parameters do what they claim: at 65,535 nodes they fall from 15.95 to
    15.16 over the ``p`` grid and from 11.07 to 1.92 over the ``a`` grid.
    """
    config = plan.config
    entropies: Dict[float, float] = {}
    for point in plan.point_dicts():
        (value,) = point.values()
        bound = plan.bound_workload(point)
        samples = [
            empirical_entropy(
                bound.with_seed(config.base_seed + sample).build().generate(config.n_requests)
            )
            for sample in range(max(1, n_samples))
        ]
        entropies[value] = sum(samples) / len(samples)
    return entropies
