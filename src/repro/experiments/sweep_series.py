"""Series of the one-parameter locality sweeps (Figures 3 and 4).

:func:`series_for_plot` works on the table of any single-key
:class:`repro.plans.SweepPlan`: the Q2 ``p`` sweep of
:func:`repro.experiments.build_q2_plan` and the Q3 ``a`` sweep of
:func:`repro.experiments.build_q3_plan` alike.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.results import ResultTable

__all__ = ["series_for_plot"]


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
