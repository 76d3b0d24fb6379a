"""A network parameter study: an ExperimentPlan of one NetworkPlan per point.

There is no dedicated sweep plan for network scenarios.  A study over the
source count, a workload parameter or the interleaving is written as an
:class:`~repro.plans.ExperimentPlan` whose stages are
:class:`~repro.plans.NetworkPlan`s keyed by their point.  This file pins that
route end to end: every stage validates eagerly, the study round-trips as a
plan document, and execution is bit-identical for every ``n_jobs`` and equal
to running each stage alone.
"""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import PlanError, WorkloadError
from repro.experiments.datacenter import datacenter_traffic
from repro.network.topology import theoretical_degree_bound
from repro.network.traffic import TrafficSpec
from repro.plans import (
    ExperimentPlan,
    NetworkPlan,
    RunConfig,
    dumps,
    loads,
    plan_from_dict,
    plan_to_dict,
    plan_with_overrides,
)
from repro.workloads.spec import WorkloadSpec

N_NODES = 31
CONFIG = RunConfig(n_requests=40, n_trials=1, base_seed=5)


def template_traffic(
    n_sources: int = 2,
    exponent: float = 1.6,
    interleaving: str = "round_robin",
    weights=None,
) -> TrafficSpec:
    return TrafficSpec.create(
        N_NODES,
        {
            source: WorkloadSpec.create("zipf", n_elements=N_NODES, exponent=exponent)
            for source in range(n_sources)
        },
        interleaving=interleaving,
        weights=weights,
    )


def study_plan(
    points=((1, template_traffic(1)), (3, template_traffic(3))),
    assembler: str = "trace_costs",
    config: RunConfig = CONFIG,
    algorithm: str = "rotor-push",
    name: str = "study",
) -> ExperimentPlan:
    """One stage per ``(point, traffic)`` pair, keyed ``k=<point>``."""
    return ExperimentPlan(
        name=name,
        stages=tuple(
            (
                f"k={point}",
                NetworkPlan(
                    name=f"{name}_k{point}",
                    traffic=traffic,
                    algorithm=algorithm,
                    config=config,
                ),
            )
            for point, traffic in points
        ),
        assembler=assembler,
    )


def source_count_study(counts=(1, 3), **kwargs) -> ExperimentPlan:
    return study_plan(
        points=tuple((k, template_traffic(k)) for k in counts), **kwargs
    )


class TestStudyModel:
    def test_a_stage_must_be_a_plan(self):
        with pytest.raises(PlanError, match="not a plan object"):
            ExperimentPlan(name="study", stages=(("k=1", template_traffic(1)),))

    def test_duplicate_point_keys_rejected(self):
        with pytest.raises(PlanError, match="duplicate stage keys"):
            study_plan(points=((1, template_traffic(1)), (1, template_traffic(2))))

    def test_a_point_beyond_the_node_count_fails_eagerly(self):
        # the traffic of a point is checked when it is built, before any
        # stage exists, and the error names the offending source
        with pytest.raises(WorkloadError, match="source 31 outside"):
            source_count_study(counts=(1, 99))

    def test_keep_records_rejected_in_a_stage(self):
        with pytest.raises(PlanError, match="keep_records"):
            source_count_study(
                config=RunConfig(n_requests=40, n_trials=1, keep_records=True)
            )

    def test_stages_must_agree_on_fan_out_knobs(self):
        parallel = RunConfig(n_requests=40, n_trials=1, base_seed=5, n_jobs=2)
        study = ExperimentPlan(
            name="study",
            stages=(
                ("k=1", NetworkPlan(traffic=template_traffic(1), algorithm="rotor-push", config=CONFIG)),
                ("k=2", NetworkPlan(traffic=template_traffic(2), algorithm="rotor-push", config=parallel)),
            ),
        )
        with pytest.raises(PlanError, match="disagree on n_jobs"):
            repro.run(study)

    def test_the_retired_sweep_assembler_is_unknown(self):
        with pytest.raises(PlanError, match="unknown assembler 'traffic_sweep'"):
            repro.run(source_count_study(assembler="traffic_sweep"))


class TestStudyPoints:
    def test_source_count_points_repeat_the_template_workload(self):
        study = source_count_study(counts=(1, 3))
        for (key, plan), count in zip(study.stages, (1, 3)):
            assert key == f"k={count}"
            assert plan.n_sources == count
            assert plan.source_ids() == list(range(count))
            assert {spec.kind for _, spec in plan.traffic.sources} == {"zipf"}

    def test_workload_parameter_points(self):
        study = study_plan(
            points=tuple((s, template_traffic(2, exponent=s)) for s in (1.2, 2.0))
        )
        for (_, plan), exponent in zip(study.stages, (1.2, 2.0)):
            for _, spec in plan.traffic.sources:
                assert spec.get("exponent") == exponent

    def test_weights_stay_in_the_stage_traffic(self):
        weighted = template_traffic(2, interleaving="weighted", weights={0: 1.0, 1: 0.5})
        ((_, plan),) = study_plan(points=(("w", weighted),)).stages
        assert dict(plan.traffic.weights) == {0: 1.0, 1: 0.5}

    def test_interleaving_points_change_no_row(self):
        # each source serves its own tree, so an interleaving study is flat
        study = study_plan(
            points=tuple(
                (mode, template_traffic(2, interleaving=mode))
                for mode in ("round_robin", "uniform_pairs")
            ),
            assembler="tables",
        )
        tables = repro.run(study)
        assert tables["k=round_robin"].rows == tables["k=uniform_pairs"].rows


class TestStudyRoundTrip:
    def test_dict_round_trip(self):
        study = source_count_study()
        assert plan_from_dict(plan_to_dict(study)) == study

    def test_json_round_trip_with_a_weighted_stage(self):
        weighted = template_traffic(2, interleaving="weighted", weights={0: 1.0, 1: 0.5})
        study = study_plan(points=((1, template_traffic(1)), ("w", weighted)))
        rebuilt = loads(dumps(study))
        assert plan_to_dict(rebuilt) == plan_to_dict(study)
        assert dict(rebuilt.stages[1][1].traffic.weights) == {0: 1.0, 1: 0.5}

    def test_studies_nest_and_round_trip(self):
        suite = ExperimentPlan(
            name="suite",
            stages=(("a", source_count_study()), ("b", source_count_study(name="other"))),
        )
        rebuilt = loads(dumps(suite))
        assert plan_to_dict(rebuilt) == plan_to_dict(suite)

    def test_overrides_hit_every_stage_config_only(self):
        study = source_count_study()
        overridden = plan_with_overrides(study, n_jobs=4, n_requests=99)
        for (key, plan), (old_key, old_plan) in zip(overridden.stages, study.stages):
            assert key == old_key
            assert plan.config.n_jobs == 4
            assert plan.config.n_requests == 99
            assert plan.traffic == old_plan.traffic

    def test_the_retired_sweep_document_kind_is_unknown(self):
        with pytest.raises(
            PlanError,
            match="unknown plan type 'traffic_sweep'; expected one of 'trial', "
            "'sweep', 'network', 'experiment'$",
        ):
            loads('{"plan": "traffic_sweep", "name": "x"}')


class TestStudyExecution:
    def test_serial_equals_parallel(self):
        serial = repro.run(source_count_study())
        parallel = repro.run(plan_with_overrides(source_count_study(), n_jobs=4))
        assert serial.rows == parallel.rows

    def test_table_shape(self):
        table = repro.run(source_count_study(counts=(1, 3)))
        assert table.columns[:2] == ["scenario", "algorithm"]
        assert [(row["scenario"], row["source"]) for row in table.rows] == [
            ("k=1", 0), ("k=1", "total"),
            ("k=3", 0), ("k=3", 1), ("k=3", 2), ("k=3", "total"),
        ]
        assert all(row["n_trials"] == 1 for row in table.rows)

    def test_a_stage_equals_its_plan_run_alone(self):
        study = source_count_study(counts=(1, 3), assembler="tables")
        tables = repro.run(study)
        assert list(tables) == ["k=1", "k=3"]
        for key, plan in study.stages:
            assert tables[key].rows == repro.run(plan).rows

    def test_datacenter_assembler_reads_each_points_source_count(self):
        study = study_plan(
            points=tuple((k, datacenter_traffic(n_racks=16, n_sources=k)) for k in (1, 4)),
            assembler="datacenter",
        )
        table = repro.run(study)
        assert [row["tree_algorithm"] for row in table.rows] == ["rotor-push"] * 2
        assert [row["degree_bound"] for row in table.rows] == [
            theoretical_degree_bound(1),
            theoretical_degree_bound(4),
        ]
