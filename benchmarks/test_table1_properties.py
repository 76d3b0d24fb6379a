"""Benchmark / regeneration target for Table 1 (algorithm properties).

Reproduces the property table: determinism, empirical working-set-property
ratios (via the Lemma 8 adversarial construction for Rotor-Push), measured
cost-to-working-set-bound ratios and the known competitive ratios.
"""

from __future__ import annotations

import repro
from benchmarks.conftest import run_once
from repro.experiments import build_table1_plan


def test_table1_properties(benchmark):
    plan = build_table1_plan(adversary_depths=[4, 6, 8], n_nodes=255, n_requests=4_000)
    table = run_once(benchmark, repro.run, plan)
    assert len(table) == 6
    by_algorithm = {row["algorithm"]: row for row in table.rows}
    # Headline checks of the paper's Table 1.
    assert by_algorithm["rotor-push"]["known_competitive_ratio"] == 12
    assert by_algorithm["random-push"]["known_competitive_ratio"] == 16
    assert (
        by_algorithm["rotor-push"]["ws_property_ratio"]
        > by_algorithm["random-push"]["ws_property_ratio"]
    )
    benchmark.extra_info["table"] = [
        {key: str(value) for key, value in row.items()} for row in table.rows
    ]
