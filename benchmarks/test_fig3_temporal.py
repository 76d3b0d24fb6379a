"""Benchmark / regeneration target for Figure 3 (Q2, temporal locality sweep).

Regenerates, for every algorithm and repeat probability ``p``, the average
access and adjustment cost per request.  Paper shape: all self-adjusting
algorithms get cheaper as ``p`` grows; Rotor-Push and Random-Push are the best
and drop below Static-Opt at high ``p``; Max-Push's adjustment cost dominates.
"""

from __future__ import annotations

import repro
from benchmarks.conftest import run_once
from repro.experiments import build_q2_plan
from repro.experiments.sweep_series import series_for_plot


def test_fig3_temporal_locality(benchmark, bench_scale):
    table = run_once(benchmark, repro.run, build_q2_plan(bench_scale))
    totals = series_for_plot(table, metric="mean_total_cost")
    access = series_for_plot(table, metric="mean_access_cost")
    adjust = series_for_plot(table, metric="mean_adjustment_cost")
    benchmark.extra_info["total_cost_series"] = totals
    benchmark.extra_info["access_cost_series"] = access
    benchmark.extra_info["adjustment_cost_series"] = adjust

    # Self-adjusting algorithms benefit from temporal locality.
    for algorithm in ("rotor-push", "random-push", "move-half", "max-push"):
        assert totals[algorithm][-1] < totals[algorithm][0]
    # Rotor-Push and Random-Push overtake Static-Opt at the highest p.
    assert totals["rotor-push"][-1] < totals["static-opt"][-1]
    assert totals["random-push"][-1] < totals["static-opt"][-1]
    # Max-Push pays the highest adjustment cost at every p value.
    for index in range(len(adjust["max-push"])):
        assert adjust["max-push"][index] == max(
            adjust[name][index] for name in adjust
        )
    # The static trees never adjust.
    assert all(value == 0.0 for value in adjust["static-oblivious"])
    assert all(value == 0.0 for value in adjust["static-opt"])
