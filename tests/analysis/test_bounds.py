"""Tests for lower bounds and empirical competitive ratios."""

from __future__ import annotations

import pytest

from repro.algorithms import make_algorithm
from repro.analysis.bounds import (
    compute_lower_bounds,
    empirical_competitive_ratio,
    static_optimum_cost,
)
from repro.analysis.potential import ROTOR_PUSH_COMPETITIVE_RATIO
from repro.exceptions import AlgorithmError
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.uniform import UniformWorkload


class TestStaticOptimumCost:
    def test_single_hot_element(self):
        # 100 requests to one element: the optimal static tree stores it at the root.
        assert static_optimum_cost(15, [4] * 100) == 100.0

    def test_two_elements_share_top_levels(self):
        cost = static_optimum_cost(15, [4] * 10 + [9] * 10)
        assert cost == 10 * 1 + 10 * 2

    def test_matches_static_opt_algorithm(self):
        workload = UniformWorkload(31, seed=3)
        sequence = workload.generate(2_000)
        expected = static_optimum_cost(31, sequence)
        algorithm = make_algorithm("static-opt", n_nodes=31, placement_seed=1)
        result = algorithm.run(sequence)
        assert result.total_access_cost == pytest.approx(expected)

    def test_empty_sequence(self):
        assert static_optimum_cost(15, []) == 0.0


class TestLowerBounds:
    def test_trivial_bound_is_request_count(self):
        bounds = compute_lower_bounds(15, [1, 2, 3])
        assert bounds.trivial == 3.0

    def test_best_is_at_least_trivial(self):
        bounds = compute_lower_bounds(15, [1, 1, 1, 1])
        assert bounds.best >= bounds.trivial

    def test_working_set_bound_included(self):
        sequence = list(range(8)) * 4
        bounds = compute_lower_bounds(15, sequence)
        assert bounds.working_set > 0.0

    def test_static_bound_can_be_excluded(self):
        bounds = compute_lower_bounds(15, [1, 2], include_static=False)
        assert bounds.static_optimum == float("inf")


class TestEmpiricalCompetitiveRatio:
    def test_requires_matching_lengths(self):
        algorithm = make_algorithm("rotor-push", n_nodes=15, placement_seed=1)
        result = algorithm.run([1, 2, 3])
        with pytest.raises(AlgorithmError):
            empirical_competitive_ratio(result, [1, 2])

    def test_empty_sequence_gives_zero(self):
        algorithm = make_algorithm("rotor-push", n_nodes=15, placement_seed=1)
        result = algorithm.run([])
        assert empirical_competitive_ratio(result, []) == 0.0

    def test_ratio_is_positive_and_finite(self):
        workload = CombinedLocalityWorkload(63, 1.5, 0.5, seed=5)
        sequence = workload.generate(3_000)
        algorithm = make_algorithm("rotor-push", n_nodes=63, placement_seed=2)
        ratio = empirical_competitive_ratio(algorithm.run(sequence), sequence)
        assert 0.0 < ratio < 100.0

    def test_rotor_push_ratio_consistent_with_theorem7(self):
        """The measured cost over the WS lower bound stays within the proven 12x
        (with slack for the bound's hidden constants) on locality-rich inputs."""
        workload = CombinedLocalityWorkload(127, 1.6, 0.6, seed=9)
        sequence = workload.generate(5_000)
        algorithm = make_algorithm("rotor-push", n_nodes=127, placement_seed=3)
        ratio = empirical_competitive_ratio(algorithm.run(sequence), sequence)
        assert ratio <= ROTOR_PUSH_COMPETITIVE_RATIO

    def test_static_opt_ratio_close_to_one_on_skewed_input(self):
        sequence = [0] * 900 + [5] * 60 + [9] * 40
        algorithm = make_algorithm("static-opt", n_nodes=15, placement_seed=1)
        ratio = empirical_competitive_ratio(algorithm.run(sequence), sequence)
        assert ratio <= 2.0

    def test_quotient_is_no_bound_below(self):
        """The working-set term can exceed a feasible schedule's cost.

        On 700 requests cycling over the 7 elements of a 7-node tree, WS
        reads 1,957.8 while Static-Opt serves the sequence for 1,700, so WS
        is above the offline optimum and the quotient drops below 1.
        """
        sequence = [index % 7 for index in range(700)]
        bounds = compute_lower_bounds(7, sequence)
        result = make_algorithm("static-opt", n_nodes=7).run(sequence)
        assert bounds.working_set == pytest.approx(1957.796, abs=1e-3)
        assert result.total_cost == 1700 < bounds.best
        ratio = empirical_competitive_ratio(result, sequence, bounds)
        assert ratio == pytest.approx(0.868, abs=1e-3)
