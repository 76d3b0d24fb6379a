"""Benchmark / regeneration target for Figure 4 (Q3, spatial locality sweep).

Regenerates, per algorithm and Zipf exponent ``a``, the average access and
adjustment cost per request.  Paper shape: all self-adjusting algorithms
exploit spatial locality; Rotor-Push, Random-Push and Max-Push achieve similar
access costs; Static-Opt remains the cheapest overall in the purely spatial
scenarios; the self-adjusting trees overtake Static-Oblivious as ``a`` grows.
"""

from __future__ import annotations

import repro
from benchmarks.conftest import run_once
from repro.experiments import build_q3_plan
from repro.experiments.sweep_series import series_for_plot


def test_fig4_spatial_locality(benchmark, bench_scale):
    table = run_once(benchmark, repro.run, build_q3_plan(bench_scale))
    totals = series_for_plot(table, metric="mean_total_cost")
    access = series_for_plot(table, metric="mean_access_cost")
    benchmark.extra_info["total_cost_series"] = totals
    benchmark.extra_info["access_cost_series"] = access

    # Spatial locality reduces the cost of every self-adjusting algorithm.
    for algorithm in ("rotor-push", "random-push", "max-push", "move-half"):
        assert totals[algorithm][-1] < totals[algorithm][0]
    # Static-Opt is the best algorithm at every exponent of the sweep.
    for index in range(len(totals["static-opt"])):
        assert totals["static-opt"][index] == min(
            totals[name][index] for name in totals
        )
    # At the most skewed setting the self-adjusting trees beat Static-Oblivious.
    assert totals["rotor-push"][-1] < totals["static-oblivious"][-1]
    assert totals["random-push"][-1] < totals["static-oblivious"][-1]
