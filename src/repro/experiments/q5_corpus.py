"""Q5 - do experiments with (corpus-like) real data reflect the synthetic insights?

Reproduces Figures 6 and 7 on the five-book corpus:

* **Figure 6** - the complexity map: each book-derived request sequence is
  placed at its (temporal complexity, non-temporal complexity) coordinates
  computed from compressed trace sizes.  The paper's books land at temporal
  complexity 0.3-0.5 and non-temporal complexity 0.8-1.0 (moderate to high
  locality).
* **Figure 7** - per-book performance of all six algorithms (average access and
  adjustment cost per request).

Because the Canterbury corpus is not available offline, the corpus is the
deterministic synthetic five-book corpus
(:mod:`repro.workloads.synthetic_text`); the ``corpus`` pipeline plan
(:func:`repro.experiments.corpus_pipeline.build_corpus_pipeline_plan` with
``paths``) runs the same analysis on real text files.

Both figures are assembler-only :class:`repro.plans.ExperimentPlan` objects
carrying ``(n_books, corpus_scale)``.  Each book is a ``corpus`` recipe spec
(:func:`repro.workloads.corpus.synthetic_corpus_specs`); Figure 7's payloads
ship those specs through the corpus pipeline's payload builder
(:func:`repro.experiments.corpus_pipeline.corpus_payloads`), and the workers
rebuild every book from its recipe.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.algorithms.registry import PAPER_ALGORITHMS
from repro.exceptions import PlanError
from repro.experiments.config import get_scale
from repro.experiments.corpus_pipeline import complexity_table, corpus_payloads
from repro.plans import ExperimentPlan
from repro.plans.execute import (
    StageResult,
    register_assembler,
    register_payload_assembler,
)
from repro.sim.results import ResultTable
from repro.workloads.corpus import CorpusWorkload, synthetic_corpus_specs
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "build_q5_plan",
    "build_q5_complexity_plan",
    "build_q5_costs_plan",
]

#: Number of synthetic books in the default corpus.
_N_BOOKS = 5

#: Sliding-window width of the paper's letter-triple pipeline.
_WINDOW = 3

_FIG6_COLUMNS = [
    "dataset",
    "n_requests",
    "n_distinct",
    "temporal_complexity",
    "non_temporal_complexity",
    "entropy_bits",
]


@lru_cache(maxsize=2)
def _corpus_cache(
    n_books: int, corpus_scale: float
) -> Tuple[Tuple[WorkloadSpec, ...], Tuple[CorpusWorkload, ...]]:
    """Build (once) the synthetic corpus's recipe specs and their workloads.

    Memoised so the fig6 and fig7 stages of one ``q5`` run share a single
    corpus build.  Safe to share: both only read titles, sizes and
    ``full_sequence()`` (pure trace data).
    """
    specs = tuple(
        synthetic_corpus_specs(n_books=n_books, scale=corpus_scale, window=_WINDOW)
    )
    return specs, tuple(spec.build() for spec in specs)


def _corpus(plan: ExperimentPlan):
    """Return the corpus specs and workloads named by ``plan``'s parameters."""
    params = plan.param_dict()
    return _corpus_cache(
        int(params.get("n_books", _N_BOOKS)), float(params.get("corpus_scale", 1.0))
    )


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
    _specs, workloads = _corpus(plan)
    return complexity_table(workloads, "fig6_complexity_map", _FIG6_COLUMNS)


def build_q5_costs_plan(
    scale: str = "tiny",
    algorithms: Optional[Sequence[str]] = None,
    max_requests: Optional[int] = None,
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the Figure 7 plan (assembler-only: corpus recipe payloads)."""
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
    """All algorithms on every book, capped at ``n_requests`` each (Figure 7)."""
    specs, workloads = _corpus(plan)
    algorithms = [str(name) for name in plan.param_dict()["algorithms"]]
    payloads = corpus_payloads(specs, workloads, algorithms, plan.config)

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


def build_q5_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the full Q5 plan: complexity map and per-book costs."""
    return ExperimentPlan.create(
        name="q5_corpus",
        stages=(
            ("fig6", build_q5_complexity_plan(scale)),
            ("fig7", build_q5_costs_plan(scale, n_jobs=n_jobs)),
        ),
        assembler="tables",
    )
