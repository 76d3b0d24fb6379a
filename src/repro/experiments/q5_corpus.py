"""Q5 - do experiments with (corpus-like) real data reflect the synthetic insights?

Reproduces Figures 6 and 7 on the five-book corpus:

* **Figure 6** - the complexity map: each book-derived request sequence is
  placed at its (temporal complexity, non-temporal complexity) coordinates
  computed from compressed trace sizes.  The paper's books land at temporal
  complexity 0.3-0.5 and non-temporal complexity 0.8-1.0 (moderate to high
  locality).
* **Figure 7** - per-book performance of all six algorithms (average access and
  adjustment cost per request).

Because the Canterbury corpus is not available offline, the default corpus is
the deterministic synthetic five-book corpus
(:mod:`repro.workloads.synthetic_text`); pass explicit
:class:`repro.workloads.corpus.CorpusWorkload` objects (e.g. built from real
files) to reproduce the original datasets exactly.

The default (synthetic-corpus) experiments are declarative plans: the corpus
is itself deterministic data derived from ``(n_books, corpus_scale)``, so the
plans are assembler-only :class:`repro.plans.ExperimentPlan` objects carrying
those parameters — corpus *traces* are data, not specs, and are rebuilt
when the plan compiles.  Explicitly passed workloads cannot be described by
a plan document; they compile to the same payloads and fan out through
:func:`repro.plans.execute.fan_out` directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.registry import PAPER_ALGORITHMS
from repro.analysis.complexity_map import trace_complexity
from repro.analysis.entropy import locality_summary
from repro.exceptions import PlanError
from repro.experiments.config import get_scale
from repro.plans import ExperimentPlan, RunConfig
from repro.plans.execute import (
    StageResult,
    fan_out,
    register_assembler,
    register_payload_assembler,
    run as run_plan,
)
from repro.sim.results import ResultTable
from repro.sim.runner import SequenceSource, TrialPayload
from repro.workloads.corpus import CorpusWorkload, synthetic_corpus_workloads

__all__ = [
    "build_q5_plan",
    "build_q5_complexity_plan",
    "build_q5_costs_plan",
    "corpus_for_scale",
    "run_q5_complexity_map",
    "run_q5_costs",
    "run_q5",
]

#: Number of synthetic books in the default corpus.
_N_BOOKS = 5


def corpus_for_scale(
    scale: str = "tiny",
    workloads: Optional[Sequence[CorpusWorkload]] = None,
) -> List[CorpusWorkload]:
    """Return the corpus workloads used at the given scale (synthetic by default)."""
    if workloads is not None:
        return list(workloads)
    config = get_scale(scale)
    return synthetic_corpus_workloads(n_books=_N_BOOKS, scale=config.corpus_scale)


@lru_cache(maxsize=2)
def _corpus_cache(n_books: int, corpus_scale: float) -> Tuple[CorpusWorkload, ...]:
    """Build (once) the deterministic synthetic corpus for these parameters.

    Memoised so the fig6 and fig7 assemblers of one ``run_q5`` pass share a
    single corpus build, as the pre-plan implementation did.  Safe to share:
    both consumers only read ``full_sequence()`` (pure trace data).
    """
    return tuple(synthetic_corpus_workloads(n_books=n_books, scale=corpus_scale))


def _rebuild_corpus(params: Dict[str, object]) -> List[CorpusWorkload]:
    """Return the deterministic synthetic corpus named by plan parameters."""
    return list(
        _corpus_cache(
            int(params.get("n_books", _N_BOOKS)),
            float(params.get("corpus_scale", 1.0)),
        )
    )


def _complexity_table(workloads: Sequence[CorpusWorkload]) -> ResultTable:
    """Compute the Figure 6 complexity-map coordinates for ``workloads``."""
    table = ResultTable(
        name="fig6_complexity_map",
        columns=[
            "dataset",
            "n_requests",
            "n_distinct",
            "temporal_complexity",
            "non_temporal_complexity",
            "entropy_bits",
        ],
    )
    for workload in workloads:
        sequence = workload.full_sequence()
        point = trace_complexity(sequence, universe_size=workload.n_distinct)
        stats = locality_summary(sequence)
        table.add_row(
            dataset=workload.title,
            n_requests=len(sequence),
            n_distinct=workload.n_distinct,
            temporal_complexity=point.temporal_complexity,
            non_temporal_complexity=point.non_temporal_complexity,
            entropy_bits=stats["entropy_bits"],
        )
    return table


def _compile_costs(
    workloads: Sequence[CorpusWorkload],
    algorithms: Sequence[str],
    limit: int,
    base_seed: int,
):
    """Payloads of ``algorithms`` on every corpus dataset, plus the Figure 7 reducer."""
    payloads: List[TrialPayload] = []
    for index, workload in enumerate(workloads):
        # Corpus traces are data, not a recipe: ship the (truncated) sequence
        # itself.  All algorithms on a dataset share one source object.
        source = SequenceSource(tuple(workload.full_sequence()[:limit]))
        for algorithm in algorithms:
            payloads.append(
                TrialPayload(
                    algorithm=algorithm,
                    source=source,
                    n_nodes=workload.n_elements,
                    placement_seed=base_seed,
                    algorithm_seed=base_seed + 1,
                    keep_records=False,
                    trial=index,
                    metadata={"dataset": workload.title},
                )
            )

    def reduce(results) -> ResultTable:
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
        for payload, result in zip(payloads, results):
            table.add_row(
                dataset=payload.metadata["dataset"],
                algorithm=payload.algorithm_name,
                n_requests=result.n_requests,
                tree_size=payload.n_nodes,
                mean_access_cost=result.average_access_cost,
                mean_adjustment_cost=result.average_adjustment_cost,
                mean_total_cost=result.average_total_cost,
            )
        return table

    return payloads, reduce


def build_q5_complexity_plan(scale: str = "tiny") -> ExperimentPlan:
    """Build the Figure 6 plan (assembler-only: pure trace analysis)."""
    config = get_scale(scale)
    return ExperimentPlan.create(
        name="fig6_complexity_map",
        assembler="q5_complexity_map",
        params={"n_books": _N_BOOKS, "corpus_scale": config.corpus_scale},
    )


@register_assembler("q5_complexity_map")
def _assemble_q5_complexity(
    plan: ExperimentPlan, stages: List[StageResult]
) -> ResultTable:
    if stages:
        raise PlanError("assembler 'q5_complexity_map' is assembler-only")
    return _complexity_table(_rebuild_corpus(plan.param_dict()))


def build_q5_costs_plan(
    scale: str = "tiny",
    algorithms: Optional[Sequence[str]] = None,
    max_requests: Optional[int] = None,
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the Figure 7 plan (assembler-only: trace-backed payloads)."""
    config = get_scale(scale)
    limit = max_requests if max_requests is not None else config.n_requests
    return ExperimentPlan.create(
        name="fig7_corpus_costs",
        assembler="q5_costs",
        params={
            "n_books": _N_BOOKS,
            "corpus_scale": config.corpus_scale,
            "algorithms": tuple(algorithms or PAPER_ALGORITHMS),
        },
        config=config.run_config(n_requests=limit, n_jobs=n_jobs),
    )


@register_payload_assembler("q5_costs")
def _compile_q5_costs(plan: ExperimentPlan):
    params = plan.param_dict()
    return _compile_costs(
        _rebuild_corpus(params),
        [str(name) for name in params["algorithms"]],
        limit=plan.config.n_requests,
        base_seed=plan.config.base_seed,
    )


def run_q5_complexity_map(
    scale: str = "tiny",
    workloads: Optional[Sequence[CorpusWorkload]] = None,
) -> ResultTable:
    """Compute the Figure 6 complexity-map coordinates for every corpus dataset."""
    if workloads is not None:
        return _complexity_table(list(workloads))
    return run_plan(build_q5_complexity_plan(scale))


def run_q5_costs(
    scale: str = "tiny",
    workloads: Optional[Sequence[CorpusWorkload]] = None,
    algorithms: Optional[Sequence[str]] = None,
    max_requests: Optional[int] = None,
    n_jobs: int = 1,
) -> ResultTable:
    """Run all algorithms on every corpus dataset (Figure 7 data).

    The (dataset, algorithm) runs are independent; with ``n_jobs > 1`` they
    are fanned out over a process pool with bit-identical results.
    """
    if workloads is not None:
        config = get_scale(scale)
        limit = max_requests if max_requests is not None else config.n_requests
        payloads, reduce = _compile_costs(
            list(workloads),
            list(algorithms or PAPER_ALGORITHMS),
            limit=limit,
            base_seed=config.base_seed,
        )
        return reduce(fan_out(payloads, RunConfig(n_jobs=n_jobs)))
    return run_plan(build_q5_costs_plan(scale, algorithms, max_requests, n_jobs))


def build_q5_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> ExperimentPlan:
    """Build the full Q5 plan: complexity map and per-book costs.

    ``chunk_size`` is accepted for interface uniformity with the other plan
    builders; corpus traces cross the process boundary as data
    (:class:`repro.sim.runner.SequenceSource`), so it has no effect here.
    """
    del chunk_size  # corpus traces ship as sequences; nothing streams
    return ExperimentPlan.create(
        name="q5_corpus",
        stages=(
            ("fig6", build_q5_complexity_plan(scale)),
            ("fig7", build_q5_costs_plan(scale, n_jobs=n_jobs)),
        ),
        assembler="tables",
    )


def run_q5(
    scale: str = "tiny",
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> Dict[str, ResultTable]:
    """Run both Q5 analyses on the same corpus and return them keyed by figure."""
    return run_plan(build_q5_plan(scale, n_jobs, chunk_size))
