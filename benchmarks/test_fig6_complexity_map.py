"""Benchmark / regeneration target for Figure 6 (Q5, complexity map of the corpus).

Places every book-derived request sequence on the temporal / non-temporal
complexity map.  Paper shape: the books have moderate temporal complexity and
high non-temporal complexity, i.e. they carry usable locality of both kinds but
are far from maximally compressible.
"""

from __future__ import annotations

import repro
from benchmarks.conftest import run_once
from repro.experiments import build_q5_complexity_plan


def test_fig6_complexity_map(benchmark, bench_scale):
    table = run_once(benchmark, repro.run, build_q5_complexity_plan(bench_scale))
    benchmark.extra_info["complexity_points"] = [
        {
            "dataset": row["dataset"],
            "temporal": row["temporal_complexity"],
            "non_temporal": row["non_temporal_complexity"],
        }
        for row in table.rows
    ]
    assert len(table) == 5
    for row in table.rows:
        # Text-derived traces must show real temporal structure (complexity
        # clearly below 1) while keeping fairly high non-temporal complexity,
        # which is the region the paper's five books occupy.
        assert row["temporal_complexity"] < 0.95
        assert row["non_temporal_complexity"] > 0.4
