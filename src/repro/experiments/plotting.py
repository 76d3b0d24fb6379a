"""Plain-text rendering of experiment results.

The reproduction environment has no plotting library, so each figure of the
paper is reproduced as (a) the underlying data series in a
:class:`repro.sim.results.ResultTable` and (b) an ASCII rendering produced by
this module: heat maps for the Q4 wireframe and log-scale histograms for
Figure 5b.  The renderers are intentionally simple and dependency-free; they
exist so that reports and benchmark output remain human-readable.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.exceptions import ExperimentError
from repro.sim.metrics import Histogram

__all__ = ["heatmap", "histogram_chart"]


def _scaled(value: float, maximum: float, width: int) -> int:
    if maximum <= 0:
        return 0
    return max(0, min(width, int(round(width * value / maximum))))


def heatmap(
    title: str,
    row_labels: Sequence[object],
    column_labels: Sequence[object],
    values: Sequence[Sequence[float]],
    cell_width: int = 8,
) -> str:
    """Render a 2-D grid of numbers (used for the Q4 wireframe data)."""
    if len(values) != len(row_labels):
        raise ExperimentError("heatmap needs one row of values per row label")
    for row in values:
        if len(row) != len(column_labels):
            raise ExperimentError("heatmap rows must match the number of column labels")
    header = " " * cell_width + "".join(str(label).rjust(cell_width) for label in column_labels)
    lines = [title, header]
    for label, row in zip(row_labels, values):
        cells = "".join(f"{value:.2f}".rjust(cell_width) for value in row)
        lines.append(str(label).rjust(cell_width) + cells)
    return "\n".join(lines)


def histogram_chart(
    title: str,
    histogram: Histogram,
    width: int = 40,
    log_scale: bool = True,
) -> str:
    """Render a histogram (probability per value) with optional log-scaled bars.

    Matches the presentation of Figure 5b, whose y-axis is logarithmic.
    """
    rows: List[Tuple[int, float]] = [
        (value, probability) for value, _, probability in histogram.as_rows()
    ]
    if not rows:
        return f"{title}\n(no data)"
    lines = [title, f"samples: {histogram.total}, mean: {histogram.mean():.5f}"]
    probabilities = [probability for _, probability in rows if probability > 0]
    min_log = math.log10(min(probabilities)) if probabilities else -1.0
    for value, probability in rows:
        if probability <= 0:
            bar_length = 0
        elif log_scale and min_log < 0:
            bar_length = _scaled(math.log10(probability) - min_log, -min_log, width)
        else:
            bar_length = _scaled(probability, 1.0, width)
        lines.append(f"{value:+4d} | {'#' * bar_length} {probability:.2e}")
    return "\n".join(lines)
