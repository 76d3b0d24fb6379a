"""Scenario library plans: datacenter, adversarial, corpus, trace replay.

Pins the scenario-unification contract:

* the shipped golden plans equal their builders, document for document;
* the plan results are bit-identical to the former imperative scripts'
  computations (same constructions, same seeds), serial and parallel;
* a saved trace replays through a plan document (``trace_file`` spec) with
  the exact saved sequence.
"""

from __future__ import annotations

import pytest

import repro
from repro.algorithms import PAPER_ALGORITHMS
from repro.analysis.working_set import max_working_set_violation
from repro.experiments import (
    build_adversarial_plan,
    build_corpus_pipeline_plan,
    build_datacenter_plan,
    run_mtf_lower_bound,
)
from repro.network.topology import theoretical_degree_bound
from repro.plans import (
    RunConfig,
    TrialPlan,
    dumps,
    load_golden_plan,
    loads,
    plan_to_dict,
    plan_with_overrides,
)
from repro.sim.engine import simulate
from repro.workloads import RotorPushWorkingSetAdversary
from repro.workloads.corpus import CorpusWorkload
from repro.workloads.synthetic_text import synthetic_corpus
from repro.workloads.trace_io import load_trace_workload, save_trace


class TestGoldenPlans:
    @pytest.mark.parametrize(
        "name, builder",
        [
            ("datacenter", build_datacenter_plan),
            ("adversarial", build_adversarial_plan),
            ("corpus", build_corpus_pipeline_plan),
        ],
    )
    def test_golden_equals_builder(self, name, builder):
        assert plan_to_dict(load_golden_plan(name)) == plan_to_dict(builder())

    @pytest.mark.parametrize("name", ["datacenter", "adversarial", "corpus"])
    def test_golden_json_round_trips(self, name):
        plan = load_golden_plan(name)
        assert plan_to_dict(loads(dumps(plan))) == plan_to_dict(plan)


def small_adversarial_plan(n_jobs: int = 1):
    return build_adversarial_plan(
        lemma8_depths=(3, 4),
        lemma8_requests=300,
        mtf_depths=(3, 4),
        mtf_cycles=5,
        theorem7_depth=4,
        theorem7_requests=400,
        n_jobs=n_jobs,
    )


class TestAdversarialScenario:
    def test_lemma8_matches_direct_construction(self):
        tables = repro.run(small_adversarial_plan())
        for row in tables["lemma8"].rows:
            depth = row["depth"]
            adversary = RotorPushWorkingSetAdversary(depth)
            sequence, costs = adversary.generate_with_costs(300)
            assert row["working_set_limit"] == 2 * (depth + 1) - 1
            assert row["max_access_cost"] == max(r.access_cost for r in costs)
            assert row["cost_to_log_rank_ratio"] == max_working_set_violation(
                sequence, costs
            )

    def test_mtf_matches_legacy_harness(self):
        tables = repro.run(small_adversarial_plan())
        legacy = run_mtf_lower_bound([3, 4], cycles=5)
        assert tables["mtf_lower_bound"].rows == legacy.rows

    def test_theorem7_holds(self):
        tables = repro.run(small_adversarial_plan())
        row = tables["theorem7"].rows[0]
        assert row["rounds"] == 400
        assert row["violations"] == 0

    def test_serial_equals_parallel(self):
        serial = repro.run(small_adversarial_plan())
        parallel = repro.run(small_adversarial_plan(n_jobs=4))
        for key in serial:
            assert serial[key].rows == parallel[key].rows


def small_corpus_plan(n_jobs: int = 1, **kwargs):
    kwargs.setdefault("n_books", 2)
    kwargs.setdefault("scale", 0.05)
    kwargs.setdefault("max_requests", 1_500)
    kwargs.setdefault("algorithms", ("rotor-push", "static-oblivious"))
    return build_corpus_pipeline_plan(n_jobs=n_jobs, **kwargs)


class TestCorpusScenario:
    def test_costs_match_legacy_simulate_calls(self):
        # the former script's exact calls: placement_seed=1, seed=2, capped
        tables = repro.run(small_corpus_plan())
        expected = []
        for book in synthetic_corpus(n_books=2, scale=0.05):
            workload = CorpusWorkload.from_book(book)
            sequence = workload.full_sequence()[:1_500]
            for name in ("rotor-push", "static-oblivious"):
                result = simulate(
                    name,
                    sequence,
                    n_nodes=workload.n_elements,
                    placement_seed=1,
                    seed=2,
                    keep_records=False,
                )
                expected.append(
                    dict(
                        dataset=workload.title,
                        algorithm=name,
                        access=result.average_access_cost,
                        adjustment=result.average_adjustment_cost,
                        total=result.average_total_cost,
                    )
                )
        assert tables["corpus_costs"].rows == expected

    def test_complexity_map_covers_every_dataset(self):
        tables = repro.run(small_corpus_plan())
        assert [row["dataset"] for row in tables["complexity_map"].rows] == [
            "book1",
            "book2",
        ]

    def test_serial_equals_parallel(self):
        serial = repro.run(small_corpus_plan())
        parallel = repro.run(small_corpus_plan(n_jobs=4))
        for key in serial:
            assert serial[key].rows == parallel[key].rows

    def test_file_backed_plan(self, tmp_path):
        book = tmp_path / "book.txt"
        book.write_text("self adjusting trees via rotor walks " * 40)
        plan = build_corpus_pipeline_plan(paths=[str(book)], max_requests=500)
        tables = repro.run(plan)
        assert [row["dataset"] for row in tables["complexity_map"].rows] == [
            "book.txt"
        ]
        assert len(tables["corpus_costs"].rows) == len(PAPER_ALGORITHMS)

    def test_plan_document_round_trips_through_json(self, tmp_path):
        plan = small_corpus_plan()
        rebuilt = loads(dumps(plan))
        assert repro.run(rebuilt)["corpus_costs"].rows == (
            repro.run(plan)["corpus_costs"].rows
        )


def small_datacenter_plan(n_jobs: int = 1):
    return build_datacenter_plan(
        n_racks=16, n_sources=2, requests_per_source=120, n_jobs=n_jobs
    )


class TestDatacenterScenario:
    def test_table_shape_and_degree_bound(self):
        table = repro.run(small_datacenter_plan())
        assert table.columns == [
            "tree_algorithm",
            "avg_hops",
            "avg_reconfig",
            "avg_total",
            "degree_bound",
        ]
        assert [row["tree_algorithm"] for row in table.rows] == [
            "rotor-push",
            "random-push",
            "static-oblivious",
        ]
        assert all(
            row["degree_bound"] == theoretical_degree_bound(2)
            for row in table.rows
        )

    def test_self_adjusting_beats_static_on_hops(self):
        table = repro.run(small_datacenter_plan())
        by_name = {row["tree_algorithm"]: row for row in table.rows}
        assert by_name["rotor-push"]["avg_hops"] < by_name["static-oblivious"]["avg_hops"]
        assert by_name["static-oblivious"]["avg_reconfig"] == 0.0

    def test_serial_equals_parallel(self):
        serial = repro.run(small_datacenter_plan())
        parallel = repro.run(small_datacenter_plan(n_jobs=4))
        assert serial.rows == parallel.rows

    def test_overrides_reach_every_stage(self):
        plan = plan_with_overrides(small_datacenter_plan(), n_requests=40)
        for _key, stage in plan.stages:
            assert stage.config.n_requests == 40


class TestTraceReplayScenario:
    def test_saved_trace_replays_through_a_plan_document(self, tmp_path):
        sequence = [i % 15 for i in range(600)]
        path = save_trace(
            str(tmp_path / "trace.txt"),
            sequence,
            n_elements=15,
            metadata={"origin": "unit-test"},
        )
        workload = load_trace_workload(str(path))
        plan = TrialPlan(
            name="replay",
            n_nodes=15,
            workload=workload.to_spec(),
            algorithms=("rotor-push",),
            config=RunConfig(n_requests=600, n_trials=1, base_seed=4),
        )
        rebuilt = loads(dumps(plan))  # the document round-trips the digest
        table = repro.run(rebuilt)
        direct = simulate(
            "rotor-push",
            sequence,
            n_nodes=15,
            placement_seed=4 + 10_000,
            seed=4 + 20_000,
            keep_records=False,
        )
        row = table.rows[0]
        assert row["mean_access_cost"] == direct.average_access_cost
        assert row["mean_adjustment_cost"] == direct.average_adjustment_cost
