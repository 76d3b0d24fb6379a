"""The raw-text corpus pipeline as one declarative plan.

The end-to-end Figure 6/7 pipeline on a small corpus: slide a three-letter
window over each text to obtain a request sequence, place every sequence on
the complexity map, then run all six paper algorithms on each sequence and
compare costs.

Each dataset is a ``corpus`` *recipe* :class:`~repro.workloads.WorkloadSpec`
(a file path or a few synthetic-book integers), shipped to the workers as a
shared :class:`~repro.sim.runner.SpecSource` and rebuilt there,
bit-identically.  :func:`corpus_payloads` builds those payloads; Q5's
Figure 7 (:mod:`repro.experiments.q5_corpus`) compiles through it too, with
its own seeds and table layout.  The plan is assembler-only (a payload
assembler) because its parameters (book count, corpus scale, window,
optional file paths) *are* the corpus; everything downstream derives from
them deterministically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.algorithms.registry import PAPER_ALGORITHMS
from repro.analysis.complexity_map import trace_complexity
from repro.analysis.entropy import locality_summary
from repro.plans import ExperimentPlan, RunConfig
from repro.plans.execute import register_payload_assembler
from repro.sim.results import ResultTable
from repro.sim.runner import SpecSource, TrialPayload
from repro.workloads.corpus import CorpusWorkload, synthetic_corpus_specs
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "build_corpus_pipeline_plan",
    "complexity_table",
    "corpus_payloads",
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


def complexity_table(
    workloads: Sequence[CorpusWorkload], name: str, columns: Sequence[str]
) -> ResultTable:
    """Complexity-map coordinates of ``workloads`` (computed parent-side).

    ``columns`` names, in order: dataset, request count, distinct triples,
    temporal complexity, non-temporal complexity and entropy in bits.
    """
    table = ResultTable(name=name, columns=list(columns))
    for workload in workloads:
        sequence = workload.full_sequence()
        point = trace_complexity(sequence, universe_size=workload.n_distinct)
        values = (
            workload.title,
            len(sequence),
            workload.n_distinct,
            point.temporal_complexity,
            point.non_temporal_complexity,
            locality_summary(sequence)["entropy_bits"],
        )
        table.add_row(**dict(zip(columns, values)))
    return table


def corpus_payloads(
    specs: Sequence[WorkloadSpec],
    workloads: Sequence[CorpusWorkload],
    algorithms: Sequence[str],
    config: RunConfig,
) -> List[TrialPayload]:
    """Payloads of ``algorithms`` on every corpus dataset.

    ``workloads`` are ``specs`` built parent-side, for the tree sizes and
    titles.  Payload order is (dataset, algorithm); dataset ``i`` is trial
    ``i`` and every payload uses placement seed ``base_seed`` and algorithm
    seed ``base_seed + 1``.  One shared recipe spec per dataset: workers
    rebuild the corpus from a few integers (or a file path) instead of
    unpickling the trace.  Sequence streaming stops at the trace length, so
    ``config.n_requests`` caps each book.
    """
    payloads: List[TrialPayload] = []
    for index, (spec, workload) in enumerate(zip(specs, workloads)):
        source = SpecSource(spec=spec, n_requests=config.n_requests, shared=True)
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
    return payloads


@register_payload_assembler("corpus_pipeline")
def _compile_corpus_pipeline(plan: ExperimentPlan):
    """Cost runs fanned out per (dataset, algorithm); complexity map parent-side."""
    params = plan.param_dict()
    specs = _corpus_specs(params)
    workloads = [spec.build() for spec in specs]
    algorithms = [str(name) for name in params["algorithms"]]
    payloads = corpus_payloads(specs, workloads, algorithms, plan.config)

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
        complexity = complexity_table(
            workloads,
            "complexity_map",
            ["dataset", "requests", "distinct_triples", "temporal", "non_temporal", "entropy"],
        )
        return {"complexity_map": complexity, "corpus_costs": cost_table}

    return payloads, reduce

