"""Tests for the simulation engine, trial runner and algorithm comparison."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError, PlanError
from repro.plans import RunConfig
from repro.sim.engine import simulate, simulate_algorithm_on_sequence, simulate_workload
from repro.sim.runner import TrialRunner, compare_algorithms
from repro.algorithms import make_algorithm
from repro.workloads import TemporalWorkload, UniformWorkload


class TestEngine:
    def test_simulate_by_name(self):
        result = simulate("rotor-push", [1, 2, 3, 1], n_nodes=15, placement_seed=1)
        assert result.algorithm == "rotor-push"
        assert result.n_requests == 4
        assert result.metadata["placement_seed"] == 1

    def test_simulate_prebuilt_algorithm(self):
        algorithm = make_algorithm("move-half", n_nodes=15, placement_seed=2)
        result = simulate_algorithm_on_sequence(algorithm, [3, 4, 3], metadata={"x": 1})
        assert result.metadata["x"] == 1

    def test_locality_stats_attached_when_requested(self):
        result = simulate(
            "static-oblivious",
            [1, 1, 2],
            n_nodes=15,
            placement_seed=1,
            with_locality_stats=True,
        )
        assert result.metadata["locality"]["length"] == 3.0

    def test_simulate_workload_uses_universe_size(self):
        workload = UniformWorkload(31, seed=3)
        result = simulate_workload("rotor-push", workload, 100, placement_seed=1)
        assert result.n_nodes == 31
        assert result.metadata["workload"]["workload"] == "uniform"

    def test_simulate_workload_negative_requests(self):
        with pytest.raises(ExperimentError):
            simulate_workload("rotor-push", UniformWorkload(15, seed=1), -1)


class TestTrialRunner:
    def test_invalid_configuration(self):
        with pytest.raises(PlanError):
            TrialRunner(15, RunConfig(n_requests=10, n_trials=0))
        with pytest.raises(PlanError):
            TrialRunner(15, RunConfig(n_requests=-1))

    def test_trial_sequences_are_seeded_independently(self):
        runner = TrialRunner(63, RunConfig(n_requests=50, n_trials=3, base_seed=5))
        sequences = runner.trial_sequences(lambda seed: UniformWorkload(63, seed=seed))
        assert len(sequences) == 3
        assert sequences[0] != sequences[1]

    def test_workload_universe_must_match(self):
        runner = TrialRunner(63, RunConfig(n_requests=10, n_trials=1))
        with pytest.raises(ExperimentError):
            runner.trial_sequences(lambda seed: UniformWorkload(31, seed=seed))

    def test_all_algorithms_see_the_same_sequences(self):
        runner = TrialRunner(31, RunConfig(n_requests=60, n_trials=2, base_seed=1))
        outcomes = runner.run(
            ["static-oblivious", "static-opt"],
            lambda seed: UniformWorkload(31, seed=seed),
        )
        for trial in range(2):
            first = outcomes["static-oblivious"][trial].result
            second = outcomes["static-opt"][trial].result
            assert first.n_requests == second.n_requests

    def test_aggregate_summarises_trials(self):
        runner = TrialRunner(31, RunConfig(n_requests=100, n_trials=3, base_seed=2))
        outcomes = runner.run(["rotor-push"], lambda seed: UniformWorkload(31, seed=seed))
        aggregated = TrialRunner.aggregate(outcomes)
        summary = aggregated["rotor-push"]
        assert summary.n_trials == 3
        assert summary.mean_total_cost > 0
        assert summary.total_cost["min"] <= summary.mean_total_cost <= summary.total_cost["max"]

    def test_reproducibility_of_full_runs(self):
        def run_once():
            runner = TrialRunner(31, RunConfig(n_requests=80, n_trials=2, base_seed=9))
            outcomes = runner.run(
                ["rotor-push", "random-push"],
                lambda seed: TemporalWorkload(31, 0.5, seed=seed),
            )
            return {
                name: [trial.result.total_cost for trial in trials]
                for name, trials in outcomes.items()
            }

        assert run_once() == run_once()


class TestCompareAlgorithms:
    def test_compare_returns_all_algorithms(self):
        aggregated = compare_algorithms(
            ["rotor-push", "static-oblivious"],
            lambda seed: TemporalWorkload(63, 0.8, seed=seed),
            n_nodes=63,
            config=RunConfig(n_requests=400, n_trials=2),
        )
        assert set(aggregated) == {"rotor-push", "static-oblivious"}

    def test_self_adjustment_beats_static_on_high_locality(self):
        aggregated = compare_algorithms(
            ["rotor-push", "static-oblivious"],
            lambda seed: TemporalWorkload(255, 0.9, seed=seed),
            n_nodes=255,
            config=RunConfig(n_requests=2_000, n_trials=2),
        )
        assert (
            aggregated["rotor-push"].mean_total_cost
            < aggregated["static-oblivious"].mean_total_cost
        )
