"""End-to-end integration tests across the whole library.

These tests wire several subsystems together the way a downstream user would:
workload -> algorithm -> analysis -> experiment reporting, plus consistency
checks between independent implementations of the same quantity.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro import (
    CombinedLocalityWorkload,
    MultiSourceNetwork,
    PAPER_ALGORITHMS,
    UniformWorkload,
    ZipfWorkload,
    make_algorithm,
    simulate,
    working_set_bound,
)
from repro.analysis.bounds import compute_lower_bounds, static_optimum_cost
from repro.analysis.working_set import ranks_of_sequence
from repro.network import TrafficSpec
from repro.plans import RunConfig, TrialPlan
from repro.workloads import WorkloadSpec


def compare_paper_algorithms(workload: WorkloadSpec):
    """Rows of a two-trial comparison of the paper's algorithms, by algorithm."""
    table = repro.run(
        TrialPlan(
            n_nodes=255,
            workload=workload,
            algorithms=tuple(PAPER_ALGORITHMS),
            config=RunConfig(n_requests=4_000, n_trials=2),
        )
    )
    return {row["algorithm"]: row for row in table.rows}


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in ("RotorPush", "RandomPush", "MoveHalf", "MaxPush", "TreeNetwork"):
            assert hasattr(repro, name)

    def test_quickstart_snippet_from_docstring(self):
        workload = CombinedLocalityWorkload(
            n_elements=255, zipf_exponent=1.6, repeat_probability=0.5, seed=1
        )
        sequence = workload.generate(2_000)
        result = simulate("rotor-push", sequence, n_nodes=255, placement_seed=1)
        assert result.average_total_cost > 0
        # a built tree serves on the Python loop, to the same costs
        algorithm = make_algorithm("rotor-push", n_nodes=255, placement_seed=1)
        assert algorithm.run(sequence).average_total_cost == result.average_total_cost


class TestPaperFindingsEndToEnd:
    """Each test reproduces one headline observation of the paper at small scale."""

    def test_rotor_and_random_push_are_nearly_identical_on_uniform_data(self):
        sequence = UniformWorkload(511, seed=1).generate(6_000)
        rotor = simulate("rotor-push", sequence, n_nodes=511, placement_seed=2)
        random_push = simulate("random-push", sequence, n_nodes=511, placement_seed=2, seed=3)
        assert rotor.average_total_cost == pytest.approx(
            random_push.average_total_cost, rel=0.05
        )

    def test_self_adjusting_trees_exploit_temporal_locality(self):
        rows = compare_paper_algorithms(
            WorkloadSpec.create("temporal", n_elements=255, repeat_probability=0.9)
        )
        rotor = rows["rotor-push"]["mean_total_cost"]
        assert rotor < rows["static-oblivious"]["mean_total_cost"]
        assert rotor < rows["static-opt"]["mean_total_cost"]
        # Max-Push pays the largest adjustment cost (Figure 3's dominant bar).
        assert rows["max-push"]["mean_adjustment_cost"] == max(
            row["mean_adjustment_cost"] for row in rows.values()
        )

    def test_static_opt_wins_under_pure_spatial_locality(self):
        rows = compare_paper_algorithms(
            WorkloadSpec.create("zipf", n_elements=255, exponent=2.2)
        )
        best = min(rows.values(), key=lambda row: row["mean_total_cost"])
        assert best["algorithm"] == "static-opt"

    def test_every_algorithm_beats_the_trivial_depth_bound_on_skewed_input(self):
        workload = ZipfWorkload(255, 2.2, seed=5)
        sequence = workload.generate(4_000)
        depth = 7
        for name in PAPER_ALGORITHMS:
            result = simulate(name, sequence, n_nodes=255, placement_seed=3, seed=4)
            assert result.average_access_cost <= depth + 1

    def test_costs_respect_lower_bounds(self):
        workload = CombinedLocalityWorkload(127, 1.6, 0.6, seed=11)
        sequence = workload.generate(3_000)
        bounds = compute_lower_bounds(127, sequence)
        for name in PAPER_ALGORITHMS:
            result = simulate(name, sequence, n_nodes=127, placement_seed=7, seed=8)
            assert result.total_cost >= bounds.trivial
            assert result.total_access_cost >= working_set_bound(sequence) / 4

    def test_static_opt_cost_formula_matches_simulation(self):
        sequence = ZipfWorkload(63, 1.8, seed=2).generate(2_000)
        analytic = static_optimum_cost(63, sequence)
        simulated = simulate("static-opt", sequence, n_nodes=63, placement_seed=1)
        assert simulated.total_access_cost == pytest.approx(analytic)

    def test_max_push_access_cost_tracks_working_set_ranks(self):
        """Strict-MRU access costs stay logarithmic in the rank (Table 1, WS property)."""
        sequence = CombinedLocalityWorkload(127, 1.5, 0.6, seed=9).generate(3_000)
        result = simulate("max-push", sequence, n_nodes=127, placement_seed=1, keep_records=True)
        ranks = ranks_of_sequence(sequence, first_access="universe", universe_size=127)
        violations = sum(
            1
            for record, rank in zip(result.per_request, ranks)
            if record.access_cost > math.log2(max(rank, 2)) + 2
        )
        assert violations / len(sequence) < 0.02

    def test_multi_source_network_end_to_end(self):
        n_nodes = 32
        network = MultiSourceNetwork(n_nodes=n_nodes, sources=[0, 1, 2], algorithm="rotor-push")
        workloads = {
            source: WorkloadSpec.create(
                "markov",
                n_elements=n_nodes,
                n_neighbours=3,
                self_loop=0.6,
                neighbour_probability=0.3,
                seed=source,
            )
            for source in (0, 1, 2)
        }
        traffic = TrafficSpec.create(n_nodes, workloads, interleaving="uniform_pairs", seed=5)
        summary = network.serve_trace_stream(traffic.iter_trace(300))
        assert summary["n_requests"] == 900
        assert summary["average_total_cost"] > 0
        per_source = network.per_source_columns()
        assert per_source["source"] == [0, 1, 2]
        assert sum(per_source["n_requests"]) == 900
