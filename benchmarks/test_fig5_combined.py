"""Benchmark / regeneration targets for Figures 5a and 5b (Q4).

Figure 5a: total-cost difference of Rotor-Push minus Static-Oblivious over the
grid of temporal (``p``) and spatial (``a``) locality parameters - combined
locality gives the largest improvements (most negative corner at high p / a).

Figure 5b: histogram of the per-request access-cost difference between
Rotor-Push and Random-Push over uniform sequences - tightly concentrated
around zero with a near-zero mean (the paper reports a mean of -0.0003 and
differences bounded by 4 in absolute value).
"""

from __future__ import annotations

import repro
from benchmarks.conftest import run_once
from repro.experiments import build_q4_histogram_plan, build_q4_wireframe_plan
from repro.experiments.q4_combined import wireframe_grid


def test_fig5a_combined_locality_wireframe(benchmark, bench_scale):
    table = run_once(benchmark, repro.run, build_q4_wireframe_plan(bench_scale))
    probabilities, exponents, grid = wireframe_grid(table)
    benchmark.extra_info["p_values"] = probabilities
    benchmark.extra_info["a_values"] = exponents
    benchmark.extra_info["difference_grid"] = grid
    # The high-locality corner improves on the no-locality corner.
    assert grid[-1][-1] < grid[0][0]
    # Along the last row (highest p) the difference decreases with a.
    assert grid[-1][-1] <= grid[-1][0]


def test_fig5b_rotor_vs_random_histogram(benchmark, bench_scale):
    histogram, summary = run_once(benchmark, repro.run, build_q4_histogram_plan(bench_scale))
    benchmark.extra_info["mean_difference"] = summary["mean_difference"]
    benchmark.extra_info["max_abs_difference"] = summary["max_abs_difference"]
    benchmark.extra_info["histogram"] = {
        str(value): count for value, count, _ in histogram.as_rows()
    }
    # Concentration around zero, as in the paper.
    assert abs(summary["mean_difference"]) < 0.25
    assert histogram.probability(0) > 0.5
    assert summary["max_abs_difference"] <= 12
