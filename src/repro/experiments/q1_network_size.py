"""Q1 - how does the benefit of self-adjustment depend on the network size?

Reproduces Figures 2a and 2b: for tree sizes 255 ... 65,535 (scaled down at the
smaller experiment scales), run the four self-adjusting algorithms and the
demand-oblivious static tree on high-locality sequences - temporal locality
``p = 0.9`` for Figure 2a and Zipf ``a = 2.2`` for Figure 2b - and report the
*difference* of each self-adjusting algorithm's average total cost minus
Static-Oblivious's average total cost.  Negative values mean self-adjustment
pays off; the paper's finding is that the benefit grows with the tree size.

The experiment is a declarative plan: :func:`build_q1_plan` (and the
per-panel builders) return :class:`repro.plans.ExperimentPlan` objects — one
:class:`repro.plans.TrialPlan` stage per tree size plus the ``q1_panel``
assembler registered here, which turns the per-size aggregates into the
difference table; :func:`repro.run` executes them.
"""

from __future__ import annotations

from typing import List

from repro.algorithms.registry import SELF_ADJUSTING_ALGORITHMS, StaticOblivious
from repro.exceptions import PlanError
from repro.experiments.config import get_scale
from repro.plans import ExperimentPlan, TrialPlan
from repro.plans.execute import StageResult, register_assembler
from repro.sim.results import ResultTable
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "Q1_TEMPORAL_P",
    "Q1_ZIPF_A",
    "build_q1_plan",
    "build_q1_temporal_plan",
    "build_q1_spatial_plan",
    "benefit_by_size",
]

#: Temporal-locality parameter of Figure 2a.
Q1_TEMPORAL_P = 0.9

#: Zipf exponent of Figure 2b.
Q1_ZIPF_A = 2.2

_BASELINE = StaticOblivious.name

_Q1_COLUMNS = [
    "tree_size",
    "locality",
    "algorithm",
    "mean_total_cost",
    "baseline_total_cost",
    "difference",
]


def _size_sweep_plan(
    scale: str,
    locality: str,
    table_name: str,
    n_jobs: int,
) -> ExperimentPlan:
    """Build one Q1 panel: a TrialPlan per tree size + the panel assembler."""
    config = get_scale(scale)
    algorithms = tuple(SELF_ADJUSTING_ALGORITHMS) + (_BASELINE,)
    stages = []
    for tree_size in config.q1_sizes:
        n_requests = min(config.n_requests, max(1_000, tree_size * 20))
        if locality == "temporal":
            workload = WorkloadSpec.create(
                "temporal", n_elements=tree_size, repeat_probability=Q1_TEMPORAL_P
            )
        else:
            workload = WorkloadSpec.create(
                "zipf", n_elements=tree_size, exponent=Q1_ZIPF_A
            )
        stages.append(
            (
                str(tree_size),
                TrialPlan(
                    n_nodes=tree_size,
                    workload=workload,
                    algorithms=algorithms,
                    config=config.run_config(n_requests=n_requests, n_jobs=n_jobs),
                    name=f"{table_name}_size_{tree_size}",
                ),
            )
        )
    return ExperimentPlan.create(
        name=table_name,
        stages=tuple(stages),
        assembler="q1_panel",
        params={
            "locality": locality,
            "baseline": _BASELINE,
            "algorithms": tuple(SELF_ADJUSTING_ALGORITHMS),
        },
    )


@register_assembler("q1_panel")
def _assemble_q1_panel(plan: ExperimentPlan, stages: List[StageResult]) -> ResultTable:
    """Turn per-size trial aggregates into the Figure 2 difference table."""
    params = plan.param_dict()
    baseline = str(params["baseline"])
    algorithms = [str(name) for name in params["algorithms"]]
    locality = params["locality"]
    table = ResultTable(name=plan.name, columns=list(_Q1_COLUMNS))
    for stage in stages:
        if stage.aggregated is None:
            raise PlanError(
                f"assembler 'q1_panel' needs trial stages, got {stage.plan!r}"
            )
        baseline_cost = stage.aggregated[baseline].mean_total_cost
        for algorithm in algorithms:
            cost = stage.aggregated[algorithm].mean_total_cost
            table.add_row(
                tree_size=stage.plan.n_nodes,
                locality=locality,
                algorithm=algorithm,
                mean_total_cost=cost,
                baseline_total_cost=baseline_cost,
                difference=cost - baseline_cost,
            )
    return table


def build_q1_temporal_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the Figure 2a plan (size sweep under temporal locality ``p = 0.9``)."""
    return _size_sweep_plan(
        scale,
        "temporal",
        "fig2a_network_size_temporal",
        n_jobs=n_jobs,
    )


def build_q1_spatial_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the Figure 2b plan (size sweep under Zipf spatial locality ``a = 2.2``)."""
    return _size_sweep_plan(
        scale,
        "spatial",
        "fig2b_network_size_spatial",
        n_jobs=n_jobs,
    )


def build_q1_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the full Q1 plan: both panels keyed by figure identifier."""
    return ExperimentPlan.create(
        name="q1_network_size",
        stages=(
            ("fig2a", build_q1_temporal_plan(scale, n_jobs)),
            ("fig2b", build_q1_spatial_plan(scale, n_jobs)),
        ),
        assembler="tables",
    )


def benefit_by_size(table: ResultTable, algorithm: str) -> List[float]:
    """Extract the cost differences of ``algorithm`` ordered by tree size (plot series)."""
    rows = [row for row in table.rows if row["algorithm"] == algorithm]
    rows.sort(key=lambda row: row["tree_size"])
    return [float(row["difference"]) for row in rows]
