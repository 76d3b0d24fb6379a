"""Benchmark / regeneration targets for Figures 2a and 2b (Q1, network-size sweep).

The regenerated series is, per self-adjusting algorithm and tree size, the
difference of its average total cost minus Static-Oblivious's - negative values
mean self-adjustment pays off.  The paper's shape to reproduce: the benefit
grows (the difference becomes more negative) as the tree gets larger, under
both high temporal locality (p = 0.9, Figure 2a) and high spatial locality
(Zipf a = 2.2, Figure 2b).
"""

from __future__ import annotations

import repro
from benchmarks.conftest import run_once
from repro.experiments import build_q1_spatial_plan, build_q1_temporal_plan
from repro.experiments.q1_network_size import benefit_by_size


def _series(table):
    algorithms = sorted({row["algorithm"] for row in table.rows})
    return {algorithm: benefit_by_size(table, algorithm) for algorithm in algorithms}


def test_fig2a_size_sweep_temporal(benchmark, bench_scale):
    table = run_once(benchmark, repro.run, build_q1_temporal_plan(bench_scale))
    series = _series(table)
    benchmark.extra_info["difference_vs_static_oblivious"] = series
    # Paper shape: the rotor-push benefit is larger (more negative) on the
    # largest tree of the sweep than on the smallest.
    assert series["rotor-push"][-1] < series["rotor-push"][0]
    assert series["random-push"][-1] < series["random-push"][0]


def test_fig2b_size_sweep_spatial(benchmark, bench_scale):
    table = run_once(benchmark, repro.run, build_q1_spatial_plan(bench_scale))
    series = _series(table)
    benchmark.extra_info["difference_vs_static_oblivious"] = series
    assert series["rotor-push"][-1] < series["rotor-push"][0]
    # Under Zipf a = 2.2 every self-adjusting algorithm ends up cheaper than
    # the oblivious static tree on the largest size (negative difference).
    for algorithm, values in series.items():
        assert values[-1] < 0, f"{algorithm} should beat Static-Oblivious at the largest size"
