#!/usr/bin/env python3
"""Locality study: how temporal and spatial locality change the algorithm ranking.

Reproduces the core of the paper's Q2/Q3/Q4 analysis at a laptop-friendly
scale and renders the results as text plots:

* a sweep over the repeat probability ``p`` (temporal locality, Figure 3),
* a sweep over the Zipf exponent ``a`` (spatial locality, Figure 4),
* the combined-locality grid for Rotor-Push vs the oblivious static tree
  (Figure 5a).

Run with::

    python examples/locality_study.py [scale]

where ``scale`` is one of tiny / small / default / paper (default: tiny).
"""

from __future__ import annotations

import sys

import repro
from repro.experiments import build_q2_plan, build_q3_plan, build_q4_wireframe_plan
from repro.experiments.config import get_scale
from repro.experiments.plotting import heatmap, line_chart
from repro.experiments.q4_combined import wireframe_grid
from repro.experiments.sweep_series import series_for_plot


def main(scale: str = "tiny") -> None:
    config = get_scale(scale)
    print(
        f"Running the locality study at scale {config.name!r}: "
        f"{config.n_nodes} nodes, {config.n_requests} requests, {config.n_trials} trials.\n"
    )

    # ---- Q2: temporal locality ------------------------------------------------
    q2_table = repro.run(build_q2_plan(scale))
    totals = series_for_plot(q2_table, metric="mean_total_cost")
    print(
        line_chart(
            "Figure 3 - average total cost vs repeat probability p",
            config.temporal_probabilities,
            totals,
        )
    )
    print()

    # ---- Q3: spatial locality -------------------------------------------------
    q3_table = repro.run(build_q3_plan(scale))
    q3_totals = series_for_plot(q3_table, metric="mean_total_cost")
    print(
        line_chart(
            "Figure 4 - average total cost vs Zipf exponent a",
            config.zipf_exponents,
            q3_totals,
        )
    )
    print()

    # ---- Q4: combined locality --------------------------------------------------
    q4_table = repro.run(build_q4_wireframe_plan(scale))
    probabilities, exponents, grid = wireframe_grid(q4_table)
    print(
        heatmap(
            "Figure 5a - Rotor-Push minus Static-Oblivious (rows: p, columns: a)",
            probabilities,
            exponents,
            grid,
        )
    )
    print()
    print(
        "Negative numbers mean the self-adjusting tree is cheaper than the static\n"
        "oblivious tree; the benefit is largest when temporal and spatial locality\n"
        "are combined (bottom-right of the grid), as in the paper."
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "tiny")
