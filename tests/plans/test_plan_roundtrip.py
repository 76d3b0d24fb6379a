"""JSON round-trip tests: every plan type × every registered kind/algorithm.

Pins the plan document format: ``loads(dumps(plan)) == plan`` for trial,
sweep and experiment plans over every registered workload kind (including
nested specs — temporal bases, fixed sequences) and every
registered algorithm, plus the shipped golden plans being exactly what the
q1–q5 builders produce at the ``tiny`` scale.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import available_algorithms
from repro.exceptions import PlanError
from repro.plans import (
    ExperimentPlan,
    RunConfig,
    SweepPlan,
    TrialPlan,
    dumps,
    golden_plan_names,
    load_golden_plan,
    loads,
    validate_golden_plans,
)
from repro.workloads.spec import WorkloadSpec, registered_kinds

N = 31

#: One representative seedless template per registered workload kind.  A new
#: kind must be added here — the coverage test below fails otherwise.
KIND_TEMPLATES = {
    "uniform": WorkloadSpec.create("uniform", n_elements=N),
    "zipf": WorkloadSpec.create("zipf", n_elements=N, exponent=1.6),
    "temporal": WorkloadSpec.create(
        "temporal",
        n_elements=N,
        repeat_probability=0.4,
        base=WorkloadSpec.create("zipf", n_elements=N, exponent=1.3, seed=5),
    ),
    "combined-locality": WorkloadSpec.create(
        "combined-locality", n_elements=N, zipf_exponent=1.6, repeat_probability=0.5
    ),
    "markov": WorkloadSpec.create(
        "markov", n_elements=N, n_neighbours=3, self_loop=0.2, neighbour_probability=0.6
    ),
    "fixed-sequence": WorkloadSpec.create(
        "fixed-sequence", n_elements=N, sequence=tuple([0, 5, 5, 12, 30] * 4)
    ),
    "corpus": WorkloadSpec.create(
        "corpus",
        book_seed=101,
        n_words=300,
        reuse_probability=0.3,
        title="roundtrip",
        vocabulary_size=200,
        window=3,
    ),
    # documents may reference files that only exist where the plan runs;
    # round-tripping must not touch the filesystem
    "trace_file": WorkloadSpec.create(
        "trace_file", path="/data/trace.txt", sha256="0" * 64, n_elements=N
    ),
    "round_robin_path": WorkloadSpec.create("round_robin_path", depth=4),
}


def test_every_registered_kind_has_a_template():
    assert sorted(KIND_TEMPLATES) == registered_kinds()


@pytest.mark.parametrize("kind", sorted(KIND_TEMPLATES))
def test_trial_plan_round_trip_per_kind(kind):
    plan = TrialPlan(
        n_nodes=N,
        workload=KIND_TEMPLATES[kind],
        algorithms=("rotor-push", "static-oblivious"),
        config=RunConfig(n_requests=100, n_trials=2, max_retries=7),
        name=f"trial-{kind}",
    )
    assert loads(dumps(plan)) == plan


@pytest.mark.parametrize("kind", sorted(KIND_TEMPLATES))
def test_sweep_plan_round_trip_per_kind(kind):
    plan = SweepPlan(
        name=f"sweep-{kind}",
        workload=KIND_TEMPLATES[kind],
        algorithms=("rotor-push",),
        points=({"x": 1}, {"x": 2.5}, {"x": 4, "n_nodes": N}),
        bind={"x": "some_param"},
        n_nodes=N,
        config=RunConfig(n_requests=10, n_trials=1),
    )
    assert loads(dumps(plan)) == plan


@pytest.mark.parametrize("kind", sorted(KIND_TEMPLATES))
def test_experiment_plan_round_trip_per_kind(kind):
    trial = TrialPlan(
        n_nodes=N,
        workload=KIND_TEMPLATES[kind],
        algorithms=("move-half",),
        config=RunConfig(n_requests=10, n_trials=1),
        name=f"inner-{kind}",
    )
    plan = ExperimentPlan.create(
        name=f"experiment-{kind}",
        stages=(("inner", trial),),
        assembler="tables",
        params={"labels": ("a", "b"), "threshold": 0.25, "nested": {"k": [1, 2]}},
        config=RunConfig(n_requests=5, n_trials=1),
    )
    assert loads(dumps(plan)) == plan


@pytest.mark.parametrize("algorithm", available_algorithms())
def test_trial_plan_round_trip_per_algorithm(algorithm):
    plan = TrialPlan(
        n_nodes=N,
        workload=KIND_TEMPLATES["uniform"],
        algorithms=(algorithm,),
        config=RunConfig(n_requests=10, n_trials=1),
        name=f"trial-{algorithm}",
    )
    reloaded = loads(dumps(plan))
    assert reloaded == plan
    assert reloaded.algorithms[0].name == algorithm


def test_algorithm_params_survive_round_trip():
    plan = TrialPlan(
        n_nodes=N,
        workload=KIND_TEMPLATES["uniform"],
        algorithms=(
            # registry name with extra constructor parameters
            __import__("repro").AlgorithmSpec.create("move-half", exact_swaps=True),
        ),
        config=RunConfig(n_requests=10, n_trials=1),
    )
    reloaded = loads(dumps(plan))
    assert reloaded == plan
    assert reloaded.algorithms[0].param_dict() == {"exact_swaps": True}


def test_nested_experiment_round_trip():
    q1_like = ExperimentPlan.create(
        name="outer",
        stages=(
            (
                "panel",
                ExperimentPlan.create(
                    name="panel",
                    stages=(
                        (
                            "63",
                            TrialPlan(
                                n_nodes=63,
                                workload=WorkloadSpec.create("uniform", n_elements=63),
                                algorithms=("rotor-push",),
                                config=RunConfig(n_requests=10, n_trials=1),
                            ),
                        ),
                    ),
                    assembler="table",
                ),
            ),
        ),
        assembler="tables",
    )
    assert loads(dumps(q1_like)) == q1_like


class TestSchemaErrors:
    def test_not_json(self):
        with pytest.raises(PlanError, match="JSON"):
            loads("{not json")

    def test_unknown_plan_type(self):
        with pytest.raises(
            PlanError,
            match="unknown plan type 'banana'; expected one of 'trial', "
            "'sweep', 'network', 'experiment'$",
        ):
            loads('{"plan": "banana", "name": "x"}')

    def test_missing_required_key(self):
        with pytest.raises(PlanError, match="missing required key"):
            loads('{"plan": "trial", "name": "x", "n_nodes": 31}')

    def test_stage_without_plan_key(self):
        with pytest.raises(PlanError, match="stage"):
            loads(
                '{"plan": "experiment", "name": "x", "stages": [{"key": "a"}]}'
            )

    def test_bad_document_references_fail_like_python_construction(self):
        document = (
            '{"plan": "trial", "name": "x", "n_nodes": 31,'
            ' "workload": {"kind": "nope", "seed": null, "params": {"n_elements": 31}},'
            ' "algorithms": [{"name": "rotor-push", "params": {}}],'
            ' "config": {"n_requests": 10, "n_trials": 1}}'
        )
        from repro.exceptions import WorkloadError

        with pytest.raises(WorkloadError, match="nope"):
            loads(document)


class TestGoldenPlans:
    def test_golden_plans_ship_and_validate(self):
        names = validate_golden_plans()
        assert {"q1", "q2", "q3", "q4", "q5", "smoke"} <= set(names)

    def test_golden_plans_match_builders_at_tiny_scale(self):
        from repro.experiments import (
            build_q1_plan,
            build_q2_plan,
            build_q3_plan,
            build_q4_plan,
            build_q5_plan,
        )

        builders = {
            "q1": build_q1_plan,
            "q2": build_q2_plan,
            "q3": build_q3_plan,
            "q4": build_q4_plan,
            "q5": build_q5_plan,
        }
        for name, builder in builders.items():
            assert load_golden_plan(name) == builder("tiny"), name

    def test_table1_golden_matches_builder(self):
        from repro.experiments import build_table1_plan

        assert load_golden_plan("table1") == build_table1_plan()

    def test_golden_round_trip_identity(self):
        for name in golden_plan_names():
            plan = load_golden_plan(name)
            assert loads(dumps(plan)) == plan

    def test_unknown_golden_name_lists_available(self):
        with pytest.raises(PlanError) as excinfo:
            load_golden_plan("q99")
        assert "q1" in str(excinfo.value)
