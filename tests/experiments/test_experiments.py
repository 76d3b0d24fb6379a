"""Tests for the experiment harnesses (Q1-Q5, Table 1) at tiny scale.

These tests verify that each experiment runs end to end, produces the expected
table structure, and - where statistically robust even at tiny scale -
reproduces the qualitative finding of the corresponding figure of the paper.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.exceptions import ExperimentError
from repro.experiments import (
    SCALES,
    build_q1_temporal_plan,
    build_q2_plan,
    build_q3_plan,
    build_q4_histogram_plan,
    build_q4_wireframe_plan,
    build_q5_complexity_plan,
    build_q5_costs_plan,
    get_scale,
    run_mtf_lower_bound,
    run_potential_check,
    run_table1,
    run_working_set_violation,
    run_ws_bound_ratios,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.q1_network_size import benefit_by_size
from repro.experiments.q4_combined import wireframe_grid
from repro.experiments.sweep_series import sequence_entropies, series_for_plot

# A miniature scale so that the whole experiment suite runs in seconds.
SCALES["unit"] = ExperimentScale(
    name="unit",
    n_nodes=127,
    n_requests=1_200,
    n_trials=2,
    q1_sizes=[31, 127],
    temporal_probabilities=[0.0, 0.9],
    zipf_exponents=[1.001, 2.2],
    q4_probabilities=[0.0, 0.9],
    q4_exponents=[1.001, 2.2],
    corpus_scale=0.03,
)


class TestConfig:
    def test_known_scales_exist(self):
        for name in ("tiny", "small", "default", "paper"):
            scale = get_scale(name)
            assert scale.n_nodes > 0

    def test_paper_scale_matches_paper_parameters(self):
        paper = get_scale("paper")
        assert paper.n_nodes == 65_535
        assert paper.n_requests == 1_000_000
        assert paper.n_trials == 10
        assert paper.temporal_probabilities == [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
        assert paper.zipf_exponents == [1.001, 1.3, 1.6, 1.9, 2.2]
        assert paper.q1_sizes[-1] == 65_535

    def test_unknown_scale_raises(self):
        with pytest.raises(ExperimentError):
            get_scale("galactic")


class TestQ1:
    def test_benefit_grows_with_tree_size(self):
        table = repro.run(build_q1_temporal_plan("unit"))
        assert len(table) == 8  # 2 sizes x 4 self-adjusting algorithms
        rotor_benefit = benefit_by_size(table, "rotor-push")
        # More negative difference (bigger benefit) on the larger tree.
        assert rotor_benefit[-1] < rotor_benefit[0]

    def test_differences_are_relative_to_static_oblivious(self):
        table = repro.run(build_q1_temporal_plan("unit"))
        for row in table.rows:
            assert row["difference"] == pytest.approx(
                row["mean_total_cost"] - row["baseline_total_cost"]
            )


class TestQ2:
    def test_table_shape(self):
        table = repro.run(build_q2_plan("unit"))
        assert len(table) == 2 * 6  # 2 probabilities x 6 algorithms
        assert set(table.column("algorithm")) == {
            "rotor-push",
            "random-push",
            "move-half",
            "max-push",
            "static-oblivious",
            "static-opt",
        }

    def test_self_adjusting_algorithms_benefit_from_temporal_locality(self):
        table = repro.run(build_q2_plan("unit"))
        series = series_for_plot(table)
        for algorithm in ("rotor-push", "random-push", "move-half", "max-push"):
            assert series[algorithm][-1] < series[algorithm][0]

    def test_rotor_beats_static_opt_at_high_p(self):
        table = repro.run(build_q2_plan("unit"))
        series = series_for_plot(table)
        assert series["rotor-push"][-1] < series["static-opt"][-1]

    def test_static_costs_unaffected_by_p(self):
        table = repro.run(build_q2_plan("unit"))
        series = series_for_plot(table, metric="mean_adjustment_cost")
        assert series["static-oblivious"] == [0.0, 0.0]
        assert series["static-opt"] == [0.0, 0.0]

    def test_entropies_decrease_with_p(self):
        entropies = sequence_entropies(build_q2_plan("unit"))
        values = [entropies[p] for p in sorted(entropies)]
        assert values[-1] < values[0]


class TestQ3:
    def test_series_follow_the_zipf_exponent_column(self):
        table = repro.run(build_q3_plan("unit"))
        series = series_for_plot(table)
        for algorithm, values in series.items():
            rows = sorted(table.filter(algorithm=algorithm).rows, key=lambda row: row["a"])
            assert values == [row["mean_total_cost"] for row in rows]

    def test_entropies_decrease_with_a(self):
        entropies = sequence_entropies(build_q3_plan("unit"))
        assert list(entropies) == [1.001, 2.2]
        assert entropies[2.2] < entropies[1.001]

    def test_spatial_locality_helps_all_self_adjusting_algorithms(self):
        table = repro.run(build_q3_plan("unit"))
        for algorithm in ("rotor-push", "random-push", "max-push"):
            rows = table.filter(algorithm=algorithm).rows
            by_exponent = sorted(rows, key=lambda row: row["a"])
            assert by_exponent[-1]["mean_total_cost"] < by_exponent[0]["mean_total_cost"]

    def test_static_opt_is_best_under_pure_spatial_locality(self):
        table = repro.run(build_q3_plan("unit"))
        for exponent in (1.001, 2.2):
            rows = {row["algorithm"]: row["mean_total_cost"] for row in table.rows if row["a"] == exponent}
            assert rows["static-opt"] == min(rows.values())


class TestQ4:
    def test_wireframe_grid_shape(self):
        table = repro.run(build_q4_wireframe_plan("unit"))
        probabilities, exponents, grid = wireframe_grid(table)
        assert probabilities == [0.0, 0.9]
        assert exponents == [1.001, 2.2]
        assert len(grid) == 2 and len(grid[0]) == 2

    def test_combined_locality_gives_largest_improvement(self):
        table = repro.run(build_q4_wireframe_plan("unit"))
        _, _, grid = wireframe_grid(table)
        # Bottom-right corner (high p, high a) must improve on the no-locality corner.
        assert grid[1][1] < grid[0][0]

    def test_histogram_is_concentrated_around_zero(self):
        histogram, summary = repro.run(build_q4_histogram_plan("unit", n_sequences=2))
        assert abs(summary["mean_difference"]) < 0.5
        assert summary["max_abs_difference"] <= 10
        assert histogram.probability(0) > 0.5


class TestQ5:
    def test_complexity_map_rows(self):
        table = repro.run(build_q5_complexity_plan("unit"))
        assert len(table) == 5
        for row in table.rows:
            assert 0.0 <= row["temporal_complexity"] <= 1.0
            assert 0.0 <= row["non_temporal_complexity"] <= 1.0

    def test_corpus_costs_table(self):
        table = repro.run(build_q5_costs_plan("unit", max_requests=800))
        assert len(table) == 5 * 6
        rotor_rows = table.filter(algorithm="rotor-push").rows
        static_rows = table.filter(algorithm="static-oblivious").rows
        # Rotor-Push access cost beats the oblivious tree on corpus data.
        assert sum(r["mean_access_cost"] for r in rotor_rows) < sum(
            r["mean_total_cost"] for r in static_rows
        )


class TestTable1AndAnalyticalChecks:
    def test_working_set_violation_grows_with_depth(self):
        results = run_working_set_violation([4, 7], requests_per_depth=1_200)
        assert results[0].working_set_limit == 9
        assert results[1].max_access_cost >= results[0].max_access_cost
        assert results[1].max_cost_to_log_rank_ratio > results[0].max_cost_to_log_rank_ratio

    def test_mtf_lower_bound_table(self):
        table = run_mtf_lower_bound([3, 5], cycles=10)
        rows = sorted(table.rows, key=lambda row: row["depth"])
        assert rows[0]["mean_access_cost"] < rows[1]["mean_access_cost"]
        assert rows[1]["mean_access_cost"] >= rows[1]["depth"]

    def test_ws_bound_ratios_are_bounded(self):
        table = run_ws_bound_ratios(n_nodes=127, n_requests=2_000)
        ratios = {row["algorithm"]: row["cost_to_ws_bound"] for row in table.rows}
        assert ratios["rotor-push"] < 12
        assert ratios["random-push"] < 16

    def test_potential_check_has_no_violations(self):
        summary = run_potential_check(depth=5, n_requests=800)
        assert summary["violations"] == 0.0
        assert summary["max_ratio"] <= 1.0 + 1e-9

    def test_table1_structure(self):
        table = run_table1(adversary_depths=[4, 6], n_nodes=127, n_requests=1_500)
        assert len(table) == 6
        by_algorithm = {row["algorithm"]: row for row in table.rows}
        assert by_algorithm["rotor-push"]["deterministic"] is True
        assert by_algorithm["random-push"]["deterministic"] is False
        assert by_algorithm["rotor-push"]["known_competitive_ratio"] == 12
        assert by_algorithm["random-push"]["known_competitive_ratio"] == 16
        assert by_algorithm["max-push"]["known_competitive_ratio"] == "open"
        # Rotor-Push's measured WS-property ratio exceeds Random-Push's: the
        # Lemma 8 construction only fools the deterministic rotor walk.
        assert (
            by_algorithm["rotor-push"]["ws_property_ratio"]
            > by_algorithm["random-push"]["ws_property_ratio"]
        )
        assert not math.isnan(by_algorithm["rotor-push"]["cost_to_ws_bound"])
