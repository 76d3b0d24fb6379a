"""Tests for the simulation engine and the trial runner's payload helpers."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import ExperimentError, PlanError
from repro.plans import RunConfig, TrialPlan
from repro.sim.engine import simulate
from repro.sim.runner import TrialRunner, execute_payloads
from repro.workloads import WorkloadSpec


def uniform(n_elements):
    return lambda seed: WorkloadSpec.create("uniform", n_elements=n_elements, seed=seed)


def run_trials(n_nodes, config, algorithms, spec_factory):
    """Trial outcomes of ``algorithms`` through the runner's payload helpers."""
    runner = TrialRunner(n_nodes, config)
    payloads = runner.build_payloads(algorithms, runner.trial_sources(spec_factory))
    results = execute_payloads(payloads, config.n_jobs)
    return TrialRunner.collect(algorithms, payloads, results)


class TestEngine:
    def test_simulate_by_name(self):
        result = simulate("rotor-push", [1, 2, 3, 1], n_nodes=15, placement_seed=1)
        assert result.algorithm == "rotor-push"
        assert result.n_requests == 4
        assert result.metadata["placement_seed"] == 1

    def test_simulate_keeps_caller_metadata(self):
        result = simulate("move-half", [3, 4, 3], n_nodes=15, metadata={"x": 1})
        assert result.metadata["x"] == 1


class TestTrialRunner:
    def test_invalid_configuration(self):
        with pytest.raises(PlanError):
            TrialRunner(15, RunConfig(n_requests=10, n_trials=0))
        with pytest.raises(PlanError):
            TrialRunner(15, RunConfig(n_requests=-1))

    def test_trial_sources_are_seeded_independently(self):
        runner = TrialRunner(63, RunConfig(n_requests=50, n_trials=3, base_seed=5))
        sources = runner.trial_sources(uniform(63))
        assert [source.spec.seed for source in sources] == [5, 6, 7]
        sequences = [source.spec.build().generate(50) for source in sources]
        assert sequences[0] != sequences[1]

    def test_workload_universe_must_match(self):
        runner = TrialRunner(63, RunConfig(n_requests=10, n_trials=1))
        with pytest.raises(ExperimentError):
            runner.trial_sources(uniform(31))

    def test_all_algorithms_see_the_same_sequences(self):
        config = RunConfig(n_requests=60, n_trials=2, base_seed=1)
        runner = TrialRunner(31, config)
        payloads = runner.build_payloads(
            ["static-oblivious", "static-opt"], runner.trial_sources(uniform(31))
        )
        for first, second in zip(payloads[::2], payloads[1::2]):
            assert first.trial == second.trial
            assert first.source == second.source
            assert first.placement_seed == second.placement_seed

    def test_aggregate_summarises_trials(self):
        config = RunConfig(n_requests=100, n_trials=3, base_seed=2)
        aggregated = TrialRunner.aggregate(
            run_trials(31, config, ["rotor-push"], uniform(31))
        )
        summary = aggregated["rotor-push"]
        assert summary.n_trials == 3
        assert summary.mean_total_cost > 0
        assert summary.total_cost["min"] <= summary.mean_total_cost <= summary.total_cost["max"]

    def test_reproducibility_of_full_runs(self):
        def run_once():
            outcomes = run_trials(
                31,
                RunConfig(n_requests=80, n_trials=2, base_seed=9),
                ["rotor-push", "random-push"],
                lambda seed: WorkloadSpec.create(
                    "temporal", n_elements=31, repeat_probability=0.5, seed=seed
                ),
            )
            return {
                name: [trial.result.total_cost for trial in trials]
                for name, trials in outcomes.items()
            }

        assert run_once() == run_once()

    def test_a_cache_dir_outside_a_plan_run_is_refused(self, tmp_path):
        config = RunConfig(n_requests=20, n_trials=1)
        runner = TrialRunner(15, config)
        payloads = runner.build_payloads(["rotor-push"], runner.trial_sources(uniform(15)))
        with pytest.raises(ExperimentError, match="cache_dir"):
            execute_payloads(payloads, 1, cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []
        # the same call inside a plan run stores its one payload
        plan = TrialPlan(
            n_nodes=15,
            name="cache-dir-in-a-run",
            workload=WorkloadSpec.create("uniform", n_elements=15),
            algorithms=("rotor-push",),
            config=RunConfig(n_requests=20, n_trials=1, cache_dir=str(tmp_path)),
        )
        repro.run(plan)
        assert list(tmp_path.iterdir()) != []


class TestTrialPlanComparison:
    @staticmethod
    def table(n_nodes, p, n_requests):
        return repro.run(
            TrialPlan(
                n_nodes=n_nodes,
                workload=WorkloadSpec.create(
                    "temporal", n_elements=n_nodes, repeat_probability=p
                ),
                algorithms=("rotor-push", "static-oblivious"),
                config=RunConfig(n_requests=n_requests, n_trials=2),
            )
        )

    def test_compare_returns_all_algorithms(self):
        table = self.table(63, 0.8, 400)
        assert table.column("algorithm") == ["rotor-push", "static-oblivious"]

    def test_self_adjustment_beats_static_on_high_locality(self):
        costs = {
            row["algorithm"]: row["mean_total_cost"]
            for row in self.table(255, 0.9, 2_000).rows
        }
        assert costs["rotor-push"] < costs["static-oblivious"]
