"""Tests for the plan model: validation, errors, overrides, deprecations."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.core import backend as backend_mod
from repro.exceptions import PlanError, WorkloadError
from repro.plans import (
    ExperimentPlan,
    RunConfig,
    SweepPlan,
    TrialPlan,
    plan_with_overrides,
)
from repro.plans.execute import compile_plan, run as run_plan
from repro.sim.runner import TrialRunner, compare_algorithms
from repro.workloads.spec import WorkloadSpec, registered_kinds
from repro.workloads.uniform import UniformWorkload


def tiny_trial_plan(**config_kwargs) -> TrialPlan:
    return TrialPlan(
        n_nodes=31,
        workload=WorkloadSpec.create("uniform", n_elements=31),
        algorithms=("rotor-push",),
        config=RunConfig(n_requests=50, n_trials=1, **config_kwargs),
    )


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.n_jobs == 1 and config.chunk_size is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trials": 0},
            {"n_trials": -1},
            {"n_requests": -5},
            {"n_jobs": 0},
            {"chunk_size": 0},
        ],
    )
    def test_invalid_values_raise_plan_errors_at_construction(self, kwargs):
        # one exception family for plan-document validation, whatever layer
        # the delegated validator lives in
        with pytest.raises(PlanError):
            RunConfig(**kwargs)

    def test_backend_knob_is_gone(self):
        with pytest.raises(TypeError):
            RunConfig(backend="python")

    @pytest.mark.parametrize("value", [None, "python", "array", "auto"])
    def test_retired_backend_key_loads_and_is_ignored(self, value):
        document = {"n_requests": 5, "n_jobs": 2, "backend": value}
        assert RunConfig.from_dict(document) == RunConfig(n_requests=5, n_jobs=2)

    def test_with_overrides_replaces_only_given_knobs(self):
        config = RunConfig(n_requests=10, n_jobs=1, chunk_size=64)
        updated = config.with_overrides(n_jobs=4)
        assert updated.n_jobs == 4
        assert updated.chunk_size == 64
        assert updated.n_requests == 10
        assert config.with_overrides() is config

    def test_round_trip(self):
        config = RunConfig(n_requests=7, n_trials=2, chunk_size=16)
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(PlanError):
            RunConfig.from_dict({"n_requests": 5, "granularity": 3})


class TestPlanValidation:
    def test_unknown_algorithm_names_bad_key_and_lists_registered(self):
        from repro.exceptions import AlgorithmError

        with pytest.raises(AlgorithmError) as excinfo:
            TrialPlan(
                n_nodes=31,
                workload=WorkloadSpec.create("uniform", n_elements=31),
                algorithms=("rotor-pusher",),
                config=RunConfig(n_requests=10),
            )
        message = str(excinfo.value)
        assert "rotor-pusher" in message
        assert "rotor-push" in message  # the listing of registered names

    def test_unknown_workload_kind_names_bad_key_and_lists_registered(self):
        with pytest.raises(WorkloadError) as excinfo:
            TrialPlan(
                n_nodes=31,
                workload=WorkloadSpec.create("ziph", n_elements=31),
                algorithms=("rotor-push",),
                config=RunConfig(n_requests=10),
            )
        message = str(excinfo.value)
        assert "ziph" in message
        for kind in registered_kinds():
            assert kind in message

    def test_duplicate_algorithms_rejected(self):
        with pytest.raises(PlanError):
            tiny = tiny_trial_plan()
            TrialPlan(
                n_nodes=tiny.n_nodes,
                workload=tiny.workload,
                algorithms=("rotor-push", "rotor-push"),
                config=tiny.config,
            )

    def test_workload_universe_must_match_tree_size(self):
        with pytest.raises(PlanError):
            TrialPlan(
                n_nodes=31,
                workload=WorkloadSpec.create("uniform", n_elements=63),
                algorithms=("rotor-push",),
                config=RunConfig(n_requests=10),
            )

    def test_sweep_needs_points(self):
        with pytest.raises(PlanError):
            SweepPlan(
                workload=WorkloadSpec.create("uniform", n_elements=31),
                algorithms=("rotor-push",),
                points=(),
                n_nodes=31,
            )
        with pytest.raises(PlanError, match="at least one algorithm"):
            SweepPlan(
                workload=WorkloadSpec.create("uniform", n_elements=31),
                algorithms=(),
                points=({"n_nodes": 31},),
            )

    def test_sweep_bind_key_missing_from_points_rejected(self):
        """A typo'd bind key must fail at construction, not mid-run."""
        with pytest.raises(PlanError, match="appear in no sweep point"):
            SweepPlan(
                workload=WorkloadSpec.create("temporal", n_elements=31),
                algorithms=("rotor-push",),
                points=({"p": 0.1}, {"p": 0.9}),
                bind={"q": "repeat_probability"},  # typo: no point has 'q'
                n_nodes=31,
            )

    def test_sweep_unbound_point_key_rejected(self):
        """A swept variable that feeds nothing would silently sweep nothing."""
        with pytest.raises(PlanError, match="not bound"):
            SweepPlan(
                workload=WorkloadSpec.create("temporal", n_elements=31),
                algorithms=("rotor-push",),
                points=({"p": 0.1}, {"p": 0.9}),
                bind=(),
                n_nodes=31,
            )

    def test_sweep_n_nodes_point_key_is_structural(self):
        plan = SweepPlan(
            workload=WorkloadSpec.create("uniform", n_elements=31),
            algorithms=("rotor-push",),
            points=({"n_nodes": 31}, {"n_nodes": 63}),
            n_nodes=31,
        )
        assert len(plan.points) == 2

    def test_experiment_duplicate_stage_keys_rejected(self):
        plan = tiny_trial_plan()
        with pytest.raises(PlanError):
            ExperimentPlan.create(
                name="dup", stages=(("a", plan), ("a", plan)), assembler="tables"
            )

    def test_experiment_stage_must_be_plan(self):
        with pytest.raises(PlanError):
            ExperimentPlan.create(name="bad", stages=(("a", "not-a-plan"),))

    def test_plans_are_hashable_and_frozen(self):
        plan = tiny_trial_plan()
        assert hash(plan) == hash(tiny_trial_plan())
        with pytest.raises(AttributeError):
            plan.n_nodes = 63


class TestNumPyOptional:
    """Plans run identically whether or not NumPy (ndarray chunks) is present."""

    def plan(self) -> TrialPlan:
        return TrialPlan(
            n_nodes=31,
            workload=WorkloadSpec.create("uniform", n_elements=31),
            algorithms=("rotor-push", "max-push", "static-oblivious"),
            config=RunConfig(n_requests=200, n_trials=2),
        )

    def test_plan_results_identical_without_numpy(self, monkeypatch):
        native = run_plan(self.plan()).rows
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        assert run_plan(self.plan()).rows == native

    def test_nested_experiment_plans_run_without_numpy(self, monkeypatch):
        nested = ExperimentPlan.create(
            name="outer",
            stages=(("inner", self.plan()),),
            assembler="tables",
        )
        native = run_plan(nested)["inner"].rows
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        assert run_plan(nested)["inner"].rows == native


class TestOverrides:
    def test_overrides_recurse_through_experiment_plans(self):
        inner = tiny_trial_plan(chunk_size=64)
        assembler_only = ExperimentPlan.create(
            name="hist",
            assembler="q4_histogram",
            params={"n_nodes": 31, "n_sequences": 2, "rotor": "rotor-push", "random": "random-push"},
            config=RunConfig(n_requests=10, keep_records=True),
        )
        outer = ExperimentPlan.create(
            name="outer",
            stages=(("a", inner), ("b", assembler_only)),
            assembler="tables",
        )
        overridden = plan_with_overrides(outer, n_jobs=4, chunk_size=32)
        stage_a = dict(overridden.stages)["a"]
        stage_b = dict(overridden.stages)["b"]
        assert stage_a.config.n_jobs == 4 and stage_a.config.chunk_size == 32
        assert stage_b.config.n_jobs == 4 and stage_b.config.chunk_size == 32
        # untouched knobs keep the plan's values
        assert stage_a.config.n_requests == 50
        # no overrides -> identity
        assert plan_with_overrides(outer) is outer


class TestFanoutKnobAgreement:
    """A run fans out once, so every config of a plan tree shares its knobs."""

    @staticmethod
    def two_stage_plan(a: TrialPlan, b: TrialPlan) -> ExperimentPlan:
        return ExperimentPlan.create(
            name="outer", stages=(("a", a), ("b", b)), assembler="tables"
        )

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("n_jobs", 2),
            ("worker_timeout", 5.0),
            ("max_retries", 0),
            ("cache_dir", "elsewhere"),
            ("executor", "tcp://plan-host:1"),
        ],
    )
    def test_disagreeing_knob_names_both_stages(self, knob, value):
        plan = self.two_stage_plan(tiny_trial_plan(), tiny_trial_plan(**{knob: value}))
        with pytest.raises(PlanError, match=f"'outer/a' and 'outer/b' disagree on {knob}"):
            compile_plan(plan)
        with pytest.raises(PlanError, match="disagree"):
            repro.run(plan)

    def test_overrides_make_the_knobs_agree(self):
        plan = self.two_stage_plan(tiny_trial_plan(), tiny_trial_plan(n_jobs=2))
        tables = repro.run(plan_with_overrides(plan, n_jobs=1))
        assert tables["a"].rows == tables["b"].rows

    def test_chunk_size_may_differ_per_stage(self):
        plan = self.two_stage_plan(
            tiny_trial_plan(chunk_size=16), tiny_trial_plan(chunk_size=64)
        )
        compiled = compile_plan(plan)
        assert [payload.source.chunk_size for payload in compiled.payloads] == [16, 64]
        tables = repro.run(plan)
        assert tables["a"].rows == tables["b"].rows

    def test_experiment_config_joins_the_agreement(self):
        plan = ExperimentPlan.create(
            name="outer",
            stages=(("a", tiny_trial_plan()),),
            assembler="tables",
            config=RunConfig(max_retries=5),
        )
        with pytest.raises(PlanError, match="'outer' and 'outer/a' disagree on max_retries"):
            compile_plan(plan)


class TestDeprecations:
    def test_config_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner = TrialRunner(
                n_nodes=31, config=RunConfig(n_requests=10, n_trials=1, n_jobs=1)
            )
            assert runner.config.n_requests == 10 and runner.config.n_jobs == 1
            compare_algorithms(
                ["rotor-push"],
                lambda seed: UniformWorkload(31, seed=seed),
                n_nodes=31,
                config=RunConfig(n_requests=20, n_trials=1),
            )

    def test_plan_execution_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_plan(tiny_trial_plan())

    def test_repro_run_entrypoint(self):
        table = repro.run(tiny_trial_plan())
        assert [row["algorithm"] for row in table.rows] == ["rotor-push"]
