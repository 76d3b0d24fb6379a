"""Benchmark / regeneration target for Figure 7 (Q5, per-book algorithm costs).

Runs all six algorithms on every corpus dataset and regenerates the per-book
cost bars.  Paper shape: Rotor-Push and Random-Push are the best self-adjusting
algorithms with near-identical performance, their access cost is close to
Static-Opt's, and the adjustment cost remains visible because the corpus data
has only moderate locality.
"""

from __future__ import annotations

import repro
from benchmarks.conftest import run_once
from repro.experiments import build_q5_costs_plan


def test_fig7_corpus_costs(benchmark, bench_scale):
    table = run_once(benchmark, repro.run, build_q5_costs_plan(bench_scale))
    benchmark.extra_info["rows"] = [
        {key: str(value) for key, value in row.items()} for row in table.rows
    ]
    datasets = sorted({row["dataset"] for row in table.rows})
    assert len(datasets) == 5

    for dataset in datasets:
        rows = {row["algorithm"]: row for row in table.rows if row["dataset"] == dataset}
        rotor = rows["rotor-push"]
        random_push = rows["random-push"]
        # Rotor-Push and Random-Push perform nearly identically on every book.
        assert abs(rotor["mean_total_cost"] - random_push["mean_total_cost"]) <= 0.5
        # Among the self-adjusting algorithms, Rotor/Random are at (or within a
        # small margin of) the best total cost, and Max-Push is never the best
        # (its adjustment cost dominates).  At reduced scale Move-Half can be
        # marginally cheaper, exactly as the paper notes for Q2.
        self_adjusting = ["rotor-push", "random-push", "move-half", "max-push"]
        best = min(self_adjusting, key=lambda name: rows[name]["mean_total_cost"])
        assert best != "max-push"
        best_cost = rows[best]["mean_total_cost"]
        assert rotor["mean_total_cost"] <= best_cost * 1.25
        # Their access cost is in the same ballpark as the static optimum's.
        assert rotor["mean_access_cost"] <= rows["static-opt"]["mean_access_cost"] * 2.5
