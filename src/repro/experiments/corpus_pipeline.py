"""The raw-text corpus pipeline as one declarative plan.

The end-to-end Figure 6/7 pipeline on a small corpus (formerly the imperative
``examples/corpus_pipeline.py`` script): slide a three-letter window over
each text to obtain a request sequence, place every sequence on the
complexity map, then run all six paper algorithms on each sequence and
compare costs.

Unlike :mod:`repro.experiments.q5_corpus` (which ships materialised corpus
traces as :class:`~repro.sim.runner.SequenceSource` data), this pipeline
leans on the ``corpus`` *recipe* workload kind: each dataset is a
:class:`~repro.workloads.WorkloadSpec` — a file path or a few synthetic-book
integers — shipped to the workers as a shared
:class:`~repro.sim.runner.SpecSource` and rebuilt there, bit-identically.
The plan is assembler-only (a payload assembler) because its parameters (book count, corpus scale,
window, optional file paths) *are* the corpus; everything downstream derives
from them deterministically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.algorithms.registry import PAPER_ALGORITHMS
from repro.analysis.complexity_map import trace_complexity
from repro.analysis.entropy import locality_summary
from repro.plans import ExperimentPlan, RunConfig
from repro.plans.execute import register_payload_assembler, run as run_plan
from repro.sim.results import ResultTable
from repro.sim.runner import SpecSource, TrialPayload
from repro.workloads.corpus import synthetic_corpus_specs
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec

__all__ = [
    "build_corpus_pipeline_plan",
    "run_corpus_pipeline",
]

#: Default pipeline shape (the former script's constants).
N_BOOKS = 3
CORPUS_SCALE = 0.15
WINDOW = 3
MAX_REQUESTS = 30_000
CORPUS_BASE_SEED = 1


def build_corpus_pipeline_plan(
    n_books: int = N_BOOKS,
    scale: float = CORPUS_SCALE,
    window: int = WINDOW,
    paths: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    max_requests: int = MAX_REQUESTS,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> ExperimentPlan:
    """Build the corpus-pipeline plan (assembler-only).

    With ``paths`` the corpus is the named text files (each becomes a
    file-backed ``corpus`` spec — such plans only run where the files
    exist); without, it is the deterministic synthetic corpus named by
    ``(n_books, scale)``.
    """
    params: Dict[str, object] = {
        "window": int(window),
        "algorithms": tuple(algorithms or PAPER_ALGORITHMS),
    }
    if paths is not None:
        params["paths"] = tuple(str(path) for path in paths)
    else:
        params["n_books"] = int(n_books)
        params["scale"] = float(scale)
    return ExperimentPlan.create(
        name="corpus",
        assembler="corpus_pipeline",
        params=params,
        config=RunConfig(
            n_requests=int(max_requests),
            n_trials=1,
            base_seed=CORPUS_BASE_SEED,
            n_jobs=n_jobs,
            chunk_size=chunk_size,
        ),
    )


def _corpus_specs(params: Dict[str, object]) -> List[WorkloadSpec]:
    """Return the corpus recipe specs named by plan parameters."""
    window = int(params.get("window", WINDOW))
    if "paths" in params:
        return [
            WorkloadSpec.create("corpus", path=str(path), window=window)
            for path in params["paths"]
        ]
    return synthetic_corpus_specs(
        n_books=int(params.get("n_books", N_BOOKS)),
        scale=float(params.get("scale", CORPUS_SCALE)),
        window=window,
    )


def _complexity_table(workloads) -> ResultTable:
    """Compute the Figure 6-style complexity-map coordinates (parent-side)."""
    table = ResultTable(
        name="complexity_map",
        columns=["dataset", "requests", "distinct_triples", "temporal", "non_temporal", "entropy"],
    )
    for workload in workloads:
        sequence = workload.full_sequence()
        point = trace_complexity(sequence, universe_size=workload.n_distinct)
        stats = locality_summary(sequence)
        table.add_row(
            dataset=workload.title,
            requests=len(sequence),
            distinct_triples=workload.n_distinct,
            temporal=point.temporal_complexity,
            non_temporal=point.non_temporal_complexity,
            entropy=stats["entropy_bits"],
        )
    return table


@register_payload_assembler("corpus_pipeline")
def _compile_corpus_pipeline(plan: ExperimentPlan):
    """Cost runs fanned out per (dataset, algorithm); complexity map parent-side."""
    params = plan.param_dict()
    config = plan.config
    specs = _corpus_specs(params)
    workloads = [spec.build() for spec in specs]
    algorithms = [str(name) for name in params["algorithms"]]

    chunk = DEFAULT_CHUNK_SIZE if config.chunk_size is None else config.chunk_size
    payloads: List[TrialPayload] = []
    for index, (spec, workload) in enumerate(zip(specs, workloads)):
        # One shared recipe spec per dataset: workers rebuild the corpus from
        # a few integers (or a file path) instead of unpickling the trace.
        # SequenceWorkload streaming stops at the trace length, so
        # n_requests acts as the same per-book cap the script applied.
        source = SpecSource(
            spec=spec,
            n_requests=config.n_requests,
            chunk_size=chunk,
            shared=True,
        )
        for algorithm in algorithms:
            payloads.append(
                TrialPayload(
                    algorithm=algorithm,
                    source=source,
                    n_nodes=workload.n_elements,
                    placement_seed=config.base_seed,
                    algorithm_seed=config.base_seed + 1,
                    keep_records=False,
                    trial=index,
                    metadata={"dataset": workload.title},
                )
            )

    def reduce(results) -> Dict[str, ResultTable]:
        cost_table = ResultTable(
            name="corpus_costs",
            columns=["dataset", "algorithm", "access", "adjustment", "total"],
        )
        for payload, result in zip(payloads, results):
            cost_table.add_row(
                dataset=payload.metadata["dataset"],
                algorithm=payload.algorithm_name,
                access=result.average_access_cost,
                adjustment=result.average_adjustment_cost,
                total=result.average_total_cost,
            )
        return {"complexity_map": _complexity_table(workloads), "corpus_costs": cost_table}

    return payloads, reduce


def run_corpus_pipeline(
    paths: Optional[Sequence[str]] = None,
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> Dict[str, ResultTable]:
    """Run the corpus pipeline and return its tables keyed by figure."""
    return run_plan(
        build_corpus_pipeline_plan(paths=paths, n_jobs=n_jobs, chunk_size=chunk_size)
    )
