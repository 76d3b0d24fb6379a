#!/usr/bin/env python3
"""Quickstart: build a self-adjusting tree, serve a workload, inspect the costs.

This example walks through the public API in the order a new user would meet
it:

1. generate a request sequence with controllable locality,
2./3. serve it with each of the paper's algorithms on a tree of matching
   size and compare access / adjustment costs,
4. check the costs against the working-set lower bound.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    PAPER_ALGORITHMS,
    CombinedLocalityWorkload,
    simulate,
    working_set_bound,
)
from repro.analysis.bounds import compute_lower_bounds, empirical_competitive_ratio
from repro.experiments.plotting import bar_chart
from repro.sim.results import ResultTable

N_NODES = 1_023  # a complete binary tree of depth 9
N_REQUESTS = 20_000


def main() -> None:
    # 1. A workload with both spatial (Zipf a = 1.6) and temporal (p = 0.6) locality.
    workload = CombinedLocalityWorkload(
        n_elements=N_NODES, zipf_exponent=1.6, repeat_probability=0.6, seed=1
    )
    sequence = workload.generate(N_REQUESTS)
    print(f"Generated {len(sequence)} requests over {N_NODES} elements.")
    print(f"Working-set lower bound: {working_set_bound(sequence):,.0f} cost units\n")

    # 2./3. Run every algorithm from the paper on the same sequence and the same
    # random initial placement (placement_seed) - exactly the evaluation setup.
    table = ResultTable(
        name="quickstart",
        columns=["algorithm", "access", "adjustment", "total", "vs_ws_bound"],
    )
    bounds = compute_lower_bounds(N_NODES, sequence)
    totals = {}
    # simulate() serves a seeded tree in one call of the C kernel when it loads;
    # make_algorithm(...).run(sequence) returns the same result on the Python loop.
    for name in PAPER_ALGORITHMS:
        result = simulate(
            name, sequence, n_nodes=N_NODES, placement_seed=7, seed=11, keep_records=False
        )
        totals[name] = result.average_total_cost
        table.add_row(
            algorithm=name,
            access=result.average_access_cost,
            adjustment=result.average_adjustment_cost,
            total=result.average_total_cost,
            vs_ws_bound=empirical_competitive_ratio(result, sequence, bounds),
        )

    print(table.format_text())
    print()
    print(bar_chart("average total cost per request", totals, unit=" cost/req"))
    print()
    best = min(totals, key=totals.get)
    print(f"Cheapest algorithm on this workload: {best} ({totals[best]:.2f} cost/request)")


if __name__ == "__main__":
    main()
