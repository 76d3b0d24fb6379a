"""NetworkPlan: validation, round-trips, golden pins and execution identity.

The acceptance contract of the plan-native multi-source layer:

* a ``NetworkPlan`` validates eagerly with the PR-4 error conventions
  (unknown algorithm / workload names fail at construction listing the
  registered ones);
* plan documents round-trip (``dump`` → ``load`` → rerun is an identity) and
  the shipped ``multisource`` golden equals its builder;
* execution is bit-identical between ``n_jobs=1`` and ``n_jobs=4`` and equal
  to the request-by-request :class:`repro.network.MultiSourceNetwork`
  reference semantics;
* a trial serves source by source with one tree alive at a time, so the
  interleaving policy never changes a row;
* payload construction never generates a request in the parent process.
"""

from __future__ import annotations

import dataclasses
import json
import weakref

import pytest

import repro
from repro.algorithms import cascade_kernel
from repro.exceptions import AlgorithmError, PlanError, WorkloadError
from repro.network import multi_source
from repro.network.multi_source import MultiSourceNetwork
from repro.network.traffic import INTERLEAVINGS, TrafficSpec
from repro.plans import (
    ExperimentPlan,
    NetworkPlan,
    RunConfig,
    dump,
    dumps,
    load,
    load_golden_plan,
    loads,
    plan_with_overrides,
)
from repro.plans.execute import NETWORK_TRIAL_SEED_STRIDE, build_network_payloads
from repro.sim.runner import TrafficSource
from repro.workloads.base import WorkloadGenerator
from repro.workloads.spec import WorkloadSpec

N_NODES = 31
N_SOURCES = 5


def small_traffic(interleaving: str = "uniform_pairs") -> TrafficSpec:
    return TrafficSpec.create(
        N_NODES,
        {
            source: WorkloadSpec.create(
                "combined-locality",
                n_elements=N_NODES,
                zipf_exponent=1.4,
                repeat_probability=0.4,
            )
            for source in range(N_SOURCES)
        },
        interleaving=interleaving,
    )


def small_plan(algorithm: str = "rotor-push", **config_kwargs) -> NetworkPlan:
    config_kwargs.setdefault("n_requests", 80)
    config_kwargs.setdefault("n_trials", 2)
    config_kwargs.setdefault("base_seed", 7)
    return NetworkPlan(
        name="net-test",
        traffic=small_traffic(),
        algorithm=algorithm,
        config=RunConfig(**config_kwargs),
    )


class TestModelValidation:
    def test_n_sources_derived_and_cross_checked(self):
        plan = small_plan()
        assert plan.n_sources == N_SOURCES
        assert plan.n_nodes == N_NODES
        assert plan.source_ids() == list(range(N_SOURCES))
        with pytest.raises(PlanError, match="declares"):
            NetworkPlan(traffic=small_traffic(), algorithm="rotor-push", n_sources=3)

    def test_unknown_algorithm_fails_eagerly_listing_names(self):
        with pytest.raises(AlgorithmError, match="rotor-push"):
            NetworkPlan(traffic=small_traffic(), algorithm="rotr-push")

    def test_traffic_must_be_a_spec(self):
        with pytest.raises(PlanError, match="TrafficSpec"):
            NetworkPlan(traffic={"n_nodes": 4}, algorithm="rotor-push")

    def test_keep_records_rejected_eagerly(self):
        # records would accumulate inside worker-side trees and never leave;
        # the plan layer refuses the silent waste up front
        with pytest.raises(PlanError, match="keep_records"):
            small_plan(keep_records=True)

    def test_config_must_be_a_run_config(self):
        with pytest.raises(PlanError, match="RunConfig"):
            NetworkPlan(
                traffic=small_traffic(), algorithm="rotor-push", config={"n_trials": 1}
            )

    def test_composes_inside_experiment_plans(self):
        experiment = ExperimentPlan(
            name="wrapped",
            stages=(("net", small_plan()),),
            assembler="trace_costs",
        )
        assert experiment.stages[0][1] == small_plan()

    def test_overrides_reach_network_configs_recursively(self):
        experiment = ExperimentPlan(
            name="wrapped",
            stages=(("net", small_plan()),),
            assembler="trace_costs",
        )
        overridden = plan_with_overrides(
            experiment, n_jobs=3, n_trials=1, n_requests=9
        )
        config = overridden.stages[0][1].config
        assert (config.n_jobs, config.n_trials, config.n_requests) == (3, 1, 9)


class TestRoundTrip:
    def test_dump_load_is_identity(self, tmp_path):
        plan = small_plan()
        path = tmp_path / "net.json"
        dump(plan, path)
        assert load(path) == plan

    def test_loads_rejects_bad_documents_eagerly(self):
        document = dumps(small_plan()).replace("rotor-push", "rotr-push")
        with pytest.raises(AlgorithmError, match="available"):
            loads(document)
        document = dumps(small_plan()).replace("combined-locality", "combined")
        with pytest.raises(WorkloadError, match="registered kinds"):
            loads(document)

    def test_golden_equals_builder(self):
        from repro.experiments.multisource import build_multisource_plan

        assert load_golden_plan("multisource") == build_multisource_plan()


class TestExecution:
    @pytest.fixture(scope="class")
    def serial_table(self):
        return repro.run(small_plan())

    def test_reference_semantics_request_by_request(self, serial_table):
        """Trial 0 must equal a hand-built network serving the streamed
        trace one request at a time — the pre-plan semantics."""
        plan = small_plan()
        traffic = plan.traffic.with_seed(plan.config.base_seed)  # trial 0
        network = MultiSourceNetwork(
            N_NODES,
            sources=traffic.source_ids(),
            algorithm="rotor-push",
            base_seed=plan.config.base_seed + 10_000,
        )
        requests = traffic.iter_trace(plan.config.n_requests, chunk_size=1)
        for (source,), (destination,) in requests:
            network.tree_of(source).serve(destination)
        reference = {
            source: network.tree_of(source).cost_summary() for source in network.sources
        }

        single_trial = repro.run(plan_with_overrides(plan, n_trials=1))
        for row in single_trial.rows:
            if row["source"] == "total":
                continue
            summary = reference[int(row["source"])]
            assert row["n_requests"] == summary["n_requests"]
            assert row["mean_access_cost"] == pytest.approx(
                summary["average_access_cost"]
            )
            assert row["mean_total_cost"] == pytest.approx(
                summary["average_total_cost"]
            )

    def test_parallel_bit_identical_to_serial(self, serial_table):
        parallel = repro.run(plan_with_overrides(small_plan(), n_jobs=4))
        assert parallel.rows == serial_table.rows

    def test_dump_load_rerun_identity(self, tmp_path, serial_table):
        path = tmp_path / "net.json"
        dump(small_plan(), path)
        assert repro.run(load(path)).rows == serial_table.rows

    def test_table_shape(self, serial_table):
        sources = [row["source"] for row in serial_table.rows]
        assert sources == list(range(N_SOURCES)) + ["total"]
        total = serial_table.rows[-1]
        assert total["n_requests"] == N_SOURCES * 80
        assert total["mean_total_cost"] == pytest.approx(
            total["mean_access_cost"] + total["mean_adjustment_cost"]
        )

    def test_chunk_size_never_changes_results(self, serial_table, draw_sources_at):
        for chunk_size in (1, 17, 100_000):
            draw_sources_at(chunk_size)
            table = repro.run(small_plan())
            assert table.rows == serial_table.rows

    def test_golden_multisource_runs_end_to_end(self):
        plan = plan_with_overrides(
            load_golden_plan("multisource"), n_trials=1, n_requests=25
        )
        serial = repro.run(plan)
        parallel = repro.run(plan_with_overrides(plan, n_jobs=4))
        assert serial.rows == parallel.rows
        assert {row["scenario"] for row in serial.rows} == {"rotor-push", "max-push"}


class TestSourceBySource:
    """Trials serve each source's stream into its own tree, one at a time."""

    def test_interleaving_never_changes_rows(self):
        """Independent per-source trees cannot see the cross-source order."""
        rows = {}
        for interleaving in INTERLEAVINGS:
            traffic = small_traffic(interleaving)
            if interleaving == "weighted":
                traffic = dataclasses.replace(traffic, weights=((0, 4.0), (3, 2.0)))
            plan = dataclasses.replace(small_plan(), traffic=traffic)
            rows[interleaving] = json.dumps(repro.run(plan).rows)
        assert len(set(rows.values())) == 1

    def test_golden_multisource_table_ignores_interleaving_and_weights(self):
        """``multisource`` (``weighted``, with weights) prints the same table
        under ``round_robin`` and ``uniform_pairs`` without weights."""
        document = json.loads(dumps(load_golden_plan("multisource")))
        traffics = [stage["plan"]["traffic"] for stage in document["stages"]]
        assert all(traffic["interleaving"] == "weighted" for traffic in traffics)
        assert all(traffic["weights"] for traffic in traffics)
        tables = [repro.run(loads(json.dumps(document))).format_text()]
        for interleaving in ("round_robin", "uniform_pairs"):
            for traffic in traffics:
                traffic.update(interleaving=interleaving, weights={})
            tables.append(repro.run(loads(json.dumps(document))).format_text())
        assert tables[1:] == tables[:1] * 2

    def test_one_source_tree_alive_at_a_time(self, monkeypatch):
        """The tree path, which a kernel algorithm takes without the kernel."""
        built = []
        most_alive = 0

        def counted(*args, **kwargs):
            nonlocal most_alive
            tree = build(*args, **kwargs)
            built.append(weakref.ref(tree))
            most_alive = max(most_alive, sum(ref() is not None for ref in built))
            return tree

        build = multi_source.source_tree
        monkeypatch.setattr(multi_source, "source_tree", counted)
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
        traffic = TrafficSpec.create(
            255,
            {
                source: WorkloadSpec.create("uniform", n_elements=255)
                for source in range(0, 256, 4)
            },
            interleaving="uniform_pairs",
        )
        plan = NetworkPlan(
            name="sixty-four",
            traffic=traffic,
            algorithm="rotor-push",
            config=RunConfig(n_requests=30, n_trials=1),
        )
        table = repro.run(plan)
        assert len(built) == 64
        assert most_alive == 1
        assert table.rows[-1]["n_requests"] == 64 * 30

    def test_a_source_that_runs_dry_names_itself(self):
        short = WorkloadSpec.create("fixed-sequence", n_elements=N_NODES, sequence=(3, 4, 5))
        uniform = WorkloadSpec.create("uniform", n_elements=N_NODES)
        plan = NetworkPlan(
            name="dry",
            traffic=TrafficSpec.create(N_NODES, {1: uniform, 6: short, 9: uniform}),
            algorithm="rotor-push",
            config=RunConfig(n_requests=5, n_trials=1, max_retries=0),
        )
        with pytest.raises(WorkloadError, match="^workload for source 6 ran dry after 3 requests$"):
            repro.run(plan)

    def test_zero_requests_give_a_zero_row_per_source(self):
        table = repro.run(small_plan(n_requests=0, n_trials=1))
        assert [row["source"] for row in table.rows] == list(range(N_SOURCES)) + ["total"]
        for row in table.rows:
            assert row["n_requests"] == 0
            assert row["mean_total_cost"] == 0.0

    def test_trial_trees_equal_hand_built_network_trees(self):
        """A trial's columns equal a MultiSourceNetwork fed the streamed trace."""
        payload = build_network_payloads(small_plan())[1]
        traffic = payload.source.traffic
        network = MultiSourceNetwork(
            N_NODES,
            sources=traffic.source_ids(),
            algorithm="rotor-push",
            base_seed=payload.placement_seed,
        )
        network.serve_trace_stream(traffic.iter_trace(80, 17))
        columns = multi_source.serve_source_by_source(
            traffic, 80, "rotor-push", payload.placement_seed
        )
        assert columns == network.per_source_columns()


class TestPayloads:
    def test_payloads_carry_specs_only(self):
        payloads = build_network_payloads(small_plan())
        assert len(payloads) == 2
        for trial, payload in enumerate(payloads):
            assert isinstance(payload.source, TrafficSource)
            assert payload.source.requests_per_source == 80
            assert payload.source.traffic.seed == 7 + trial
            assert (
                payload.placement_seed
                == 7 + 10_000 + trial * NETWORK_TRIAL_SEED_STRIDE
            )

    def test_trials_share_no_per_source_seed_streams(self):
        """Trial i's source s+1 must not reuse trial i+1's source-s seeds:
        the trial stride keeps every per-source seed window disjoint."""
        plan = small_plan()
        payloads = build_network_payloads(plan)
        windows = []
        for payload in payloads:
            base = payload.placement_seed
            placement = {base + s for s in range(N_SOURCES)}
            algorithm = {base + 100_000 + s for s in range(N_SOURCES)}
            windows.append(placement | algorithm)
        assert not (windows[0] & windows[1])
        # and the networks the workers build start from different placements
        first = MultiSourceNetwork(
            N_NODES, sources=range(N_SOURCES), base_seed=payloads[0].placement_seed
        )
        second = MultiSourceNetwork(
            N_NODES, sources=range(N_SOURCES), base_seed=payloads[1].placement_seed
        )
        placements = [
            first.tree_of(s).tree_algorithm.network.placement()
            for s in range(N_SOURCES)
        ] + [
            second.tree_of(s).tree_algorithm.network.placement()
            for s in range(N_SOURCES)
        ]
        assert len({tuple(p) for p in placements}) == len(placements)

    def test_parent_never_generates(self, monkeypatch):
        def forbidden(self, n_requests):
            raise AssertionError("generate() called in the parent process")

        monkeypatch.setattr(WorkloadGenerator, "generate", forbidden)
        plan = small_plan(n_requests=10**6)  # paper scale: materialising shows
        payloads = build_network_payloads(plan)
        assert all(isinstance(p.source, TrafficSource) for p in payloads)

    def test_trace_costs_assembler_rejects_non_network_stages(self):
        from repro.plans import TrialPlan

        trial = TrialPlan(
            n_nodes=N_NODES,
            workload=WorkloadSpec.create("uniform", n_elements=N_NODES),
            algorithms=("rotor-push",),
            config=RunConfig(n_requests=10, n_trials=1),
        )
        experiment = ExperimentPlan(
            name="bad", stages=(("t", trial),), assembler="trace_costs"
        )
        with pytest.raises(PlanError, match="network-plan stages"):
            repro.run(experiment)
