"""Golden-plan equivalence: q1–q5 via ``repro.run`` == the legacy code paths.

Each test replicates the pre-plan imperative implementation of an experiment
(hand-built payloads from generator specs through ``TrialRunner``'s payload
helpers and ``execute_payloads``, or in-process ``simulate`` calls, with the
tables built here, so the reference stays independent of the plan compile
step) and asserts the plan-built result is bit-identical — at
``n_jobs ∈ {1, 4}`` — and that a plan serialised to JSON, reloaded and re-run
reproduces the same results.
"""

from __future__ import annotations

import pytest

import repro
from repro.algorithms.registry import (
    PAPER_ALGORITHMS,
    SELF_ADJUSTING_ALGORITHMS,
    RandomPush,
    RotorPush,
    StaticOblivious,
)
from repro.experiments import (
    SCALES,
    build_q1_spatial_plan,
    build_q1_temporal_plan,
    build_q2_plan,
    build_q3_plan,
    build_q4_histogram_plan,
    build_q4_wireframe_plan,
    build_q5_costs_plan,
    build_q5_complexity_plan,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.corpus_pipeline import complexity_table
from repro.experiments.q1_network_size import Q1_TEMPORAL_P, Q1_ZIPF_A
from repro.plans import RunConfig, dumps, loads
from repro.sim.engine import simulate
from repro.sim.metrics import histogram_of_differences, per_request_cost_difference
from repro.sim.results import ResultTable
from repro.sim.runner import SpecSource, TrialPayload, TrialRunner, execute_payloads
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.corpus import synthetic_corpus_workloads
from repro.workloads.spec import WorkloadSpec
from repro.workloads.temporal import TemporalWorkload
from repro.workloads.zipf import ZipfWorkload

# A miniature scale so the full equivalence matrix runs in seconds.
SCALES.setdefault(
    "unit",
    ExperimentScale(
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
    ),
)

SCALE = "unit"
JOBS = [1, 4]

_BASELINE = StaticOblivious.name


# ---------------------------------------------------------------- legacy paths


def legacy_aggregates(n_nodes, config, algorithms, spec_factory, n_jobs):
    """Per-algorithm aggregates of one comparison from hand-built payloads."""
    runner = TrialRunner(n_nodes, config)
    payloads = runner.build_payloads(algorithms, runner.trial_sources(spec_factory))
    results = execute_payloads(payloads, n_jobs)
    return TrialRunner.aggregate(TrialRunner.collect(algorithms, payloads, results))


def legacy_q1(scale_name: str, locality: str, table_name: str, n_jobs: int) -> ResultTable:
    """The pre-plan Q1 implementation, verbatim (modulo config packaging)."""
    scale = SCALES[scale_name]
    algorithms = list(SELF_ADJUSTING_ALGORITHMS) + [_BASELINE]
    table = ResultTable(
        name=table_name,
        columns=[
            "tree_size",
            "locality",
            "algorithm",
            "mean_total_cost",
            "baseline_total_cost",
            "difference",
        ],
    )
    for tree_size in scale.q1_sizes:
        n_requests = min(scale.n_requests, max(1_000, tree_size * 20))
        config = RunConfig(
            n_requests=n_requests, n_trials=scale.n_trials, base_seed=scale.base_seed
        )

        if locality == "temporal":
            def factory(seed, _size=tree_size):
                return TemporalWorkload(_size, Q1_TEMPORAL_P, seed=seed).to_spec()

        else:
            def factory(seed, _size=tree_size):
                return ZipfWorkload(_size, Q1_ZIPF_A, seed=seed).to_spec()

        aggregated = legacy_aggregates(tree_size, config, algorithms, factory, n_jobs)
        baseline_cost = aggregated[_BASELINE].mean_total_cost
        for algorithm in SELF_ADJUSTING_ALGORITHMS:
            cost = aggregated[algorithm].mean_total_cost
            table.add_row(
                tree_size=tree_size,
                locality=locality,
                algorithm=algorithm,
                mean_total_cost=cost,
                baseline_total_cost=baseline_cost,
                difference=cost - baseline_cost,
            )
    return table


def legacy_sweep(scale_name, key, values, factory, table_name, n_jobs) -> ResultTable:
    """One comparison per sweep point, rows assembled here."""
    scale = SCALES[scale_name]
    config = RunConfig(
        n_requests=scale.n_requests, n_trials=scale.n_trials, base_seed=scale.base_seed
    )
    table = ResultTable(
        name=table_name,
        columns=[
            key,
            "algorithm",
            "mean_access_cost",
            "mean_adjustment_cost",
            "mean_total_cost",
            "n_trials",
        ],
    )
    for value in values:
        aggregated = legacy_aggregates(
            scale.n_nodes,
            config,
            list(PAPER_ALGORITHMS),
            lambda seed, _value=float(value): factory(scale.n_nodes, _value, seed).to_spec(),
            n_jobs,
        )
        for algorithm in PAPER_ALGORITHMS:
            summary = aggregated[algorithm]
            table.add_row(
                **{key: float(value)},
                algorithm=algorithm,
                mean_access_cost=summary.mean_access_cost,
                mean_adjustment_cost=summary.mean_adjustment_cost,
                mean_total_cost=summary.mean_total_cost,
                n_trials=summary.n_trials,
            )
    return table


def legacy_q2(scale_name: str, n_jobs: int) -> ResultTable:
    return legacy_sweep(
        scale_name,
        "p",
        SCALES[scale_name].temporal_probabilities,
        lambda n_nodes, p, seed: TemporalWorkload(n_nodes, p, seed=seed),
        "fig3_temporal_locality",
        n_jobs,
    )


def legacy_q3(scale_name: str, n_jobs: int) -> ResultTable:
    return legacy_sweep(
        scale_name,
        "a",
        SCALES[scale_name].zipf_exponents,
        lambda n_nodes, a, seed: ZipfWorkload(n_nodes, a, seed=seed),
        "fig4_spatial_locality",
        n_jobs,
    )


def legacy_q4_wireframe(scale_name: str, n_jobs: int) -> ResultTable:
    scale = SCALES[scale_name]
    algorithms = [RotorPush.name, _BASELINE]
    table = ResultTable(
        name="fig5a_combined_locality",
        columns=[
            "p",
            "a",
            "rotor_total_cost",
            "static_oblivious_total_cost",
            "difference",
        ],
    )
    runner = TrialRunner(
        n_nodes=scale.n_nodes,
        config=RunConfig(
            n_requests=scale.n_requests,
            n_trials=scale.n_trials,
            base_seed=scale.base_seed,
        ),
    )
    all_payloads = []
    cells = []
    for probability in scale.q4_probabilities:
        for exponent in scale.q4_exponents:
            sources = runner.trial_sources(
                lambda seed, _p=probability, _a=exponent: CombinedLocalityWorkload(
                    scale.n_nodes, _a, _p, seed=seed
                ).to_spec()
            )
            payloads = runner.build_payloads(algorithms, sources)
            all_payloads.extend(payloads)
            cells.append((probability, exponent, payloads))
    all_results = execute_payloads(all_payloads, n_jobs)
    cursor = 0
    for probability, exponent, payloads in cells:
        results = all_results[cursor : cursor + len(payloads)]
        cursor += len(payloads)
        aggregated = TrialRunner.aggregate(
            TrialRunner.collect(algorithms, payloads, results)
        )
        rotor_cost = aggregated[RotorPush.name].mean_total_cost
        static_cost = aggregated[_BASELINE].mean_total_cost
        table.add_row(
            p=float(probability),
            a=float(exponent),
            rotor_total_cost=rotor_cost,
            static_oblivious_total_cost=static_cost,
            difference=rotor_cost - static_cost,
        )
    return table


def legacy_q4_histogram(scale_name: str, n_jobs: int):
    scale = SCALES[scale_name]
    n_sequences = max(2, scale.n_trials)
    payloads = []
    for index in range(n_sequences):
        spec = WorkloadSpec.create(
            "uniform", seed=scale.base_seed + index, n_elements=scale.n_nodes
        )
        source = SpecSource(spec, scale.n_requests, shared=True)
        placement_seed = scale.base_seed + 500 + index
        payloads.append(
            TrialPayload(
                algorithm=RotorPush.name,
                source=source,
                n_nodes=scale.n_nodes,
                placement_seed=placement_seed,
                algorithm_seed=None,
                keep_records=True,
                trial=index,
            )
        )
        payloads.append(
            TrialPayload(
                algorithm=RandomPush.name,
                source=source,
                n_nodes=scale.n_nodes,
                placement_seed=placement_seed,
                algorithm_seed=scale.base_seed + 900 + index,
                keep_records=True,
                trial=index,
            )
        )
    results = execute_payloads(payloads, n_jobs)
    differences = []
    for pair_start in range(0, len(results), 2):
        differences.extend(
            per_request_cost_difference(
                results[pair_start], results[pair_start + 1], which="access"
            )
        )
    return histogram_of_differences(differences)


def legacy_q5_costs(scale_name: str) -> ResultTable:
    """Every book served whole, in this process, by every paper algorithm."""
    scale = SCALES[scale_name]
    table = ResultTable(
        name="fig7_corpus_costs",
        columns=[
            "dataset",
            "algorithm",
            "n_requests",
            "tree_size",
            "mean_access_cost",
            "mean_adjustment_cost",
            "mean_total_cost",
        ],
    )
    books = synthetic_corpus_workloads(n_books=5, scale=scale.corpus_scale)
    for index, book in enumerate(books):
        sequence = book.full_sequence()[: scale.n_requests]
        for algorithm in PAPER_ALGORITHMS:
            result = simulate(
                algorithm,
                sequence,
                n_nodes=book.n_elements,
                placement_seed=scale.base_seed,
                seed=scale.base_seed + 1,
                keep_records=False,
            )
            table.add_row(
                dataset=book.title,
                algorithm=algorithm,
                n_requests=result.n_requests,
                tree_size=book.n_elements,
                mean_access_cost=result.average_access_cost,
                mean_adjustment_cost=result.average_adjustment_cost,
                mean_total_cost=result.average_total_cost,
            )
    return table


# ------------------------------------------------------------------ the tests


def assert_tables_identical(plan_table: ResultTable, legacy_table: ResultTable):
    assert plan_table.columns == legacy_table.columns
    assert plan_table.rows == legacy_table.rows  # exact (bit-identical floats)


@pytest.mark.parametrize("n_jobs", JOBS)
@pytest.mark.parametrize(
    "builder, locality, table_name",
    [
        (build_q1_temporal_plan, "temporal", "fig2a_network_size_temporal"),
        (build_q1_spatial_plan, "spatial", "fig2b_network_size_spatial"),
    ],
)
def test_q1_panels_bit_identical(builder, locality, table_name, n_jobs):
    plan_table = repro.run(builder(SCALE, n_jobs=n_jobs))
    legacy_table = legacy_q1(SCALE, locality, table_name, n_jobs)
    assert_tables_identical(plan_table, legacy_table)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_q2_bit_identical(n_jobs):
    assert_tables_identical(
        repro.run(build_q2_plan(SCALE, n_jobs=n_jobs)), legacy_q2(SCALE, n_jobs)
    )


@pytest.mark.parametrize("n_jobs", JOBS)
def test_q3_bit_identical(n_jobs):
    assert_tables_identical(
        repro.run(build_q3_plan(SCALE, n_jobs=n_jobs)), legacy_q3(SCALE, n_jobs)
    )


@pytest.mark.parametrize("n_jobs", JOBS)
def test_q4_wireframe_bit_identical(n_jobs):
    plan_table = repro.run(build_q4_wireframe_plan(SCALE, n_jobs=n_jobs))
    legacy_table = legacy_q4_wireframe(SCALE, n_jobs)
    assert plan_table.columns == legacy_table.columns
    assert plan_table.rows == legacy_table.rows


@pytest.mark.parametrize("n_jobs", JOBS)
def test_q4_histogram_bit_identical(n_jobs):
    histogram, summary = repro.run(build_q4_histogram_plan(SCALE, n_jobs=n_jobs))
    legacy = legacy_q4_histogram(SCALE, n_jobs)
    assert histogram.counts == legacy.counts
    assert summary["n_samples"] == float(legacy.total)


@pytest.mark.parametrize("chunk_size", [None, 97])
@pytest.mark.parametrize("n_jobs", JOBS)
def test_q5_costs_bit_identical(n_jobs, chunk_size, draw_sources_at):
    if chunk_size is not None:
        draw_sources_at(chunk_size)
    plan = build_q5_costs_plan(SCALE, n_jobs=n_jobs)
    assert_tables_identical(repro.run(plan), legacy_q5_costs(SCALE))


def test_q5_complexity_map_matches_direct_analysis():
    plan_table = repro.run(build_q5_complexity_plan(SCALE))
    books = synthetic_corpus_workloads(n_books=5, scale=SCALES[SCALE].corpus_scale)
    assert plan_table.rows == complexity_table(books, "x", plan_table.columns).rows


@pytest.mark.parametrize(
    "builder",
    [build_q1_temporal_plan, build_q2_plan, build_q4_wireframe_plan],
)
def test_json_reload_reruns_identically(builder):
    """A plan dumped to JSON, reloaded and re-run reproduces the same table."""
    plan = builder(SCALE)
    direct = repro.run(plan)
    reloaded_plan = loads(dumps(plan))
    assert reloaded_plan == plan
    reloaded = repro.run(reloaded_plan)
    assert reloaded.rows == direct.rows


def test_parallel_equals_serial_through_plans():
    """The n_jobs knob inside a plan config never changes results."""
    serial = repro.run(build_q2_plan(SCALE, n_jobs=1))
    parallel = repro.run(build_q2_plan(SCALE, n_jobs=4))
    assert serial.rows == parallel.rows
