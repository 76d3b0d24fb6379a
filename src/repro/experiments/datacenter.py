"""The reconfigurable-datacenter scenario as a declarative plan.

The paper's motivating application (formerly the imperative
``examples/datacenter_reconfiguration.py`` script): 64 racks, four of which
host traffic-heavy services and act as sources, each source's traffic a
clustered Markov walk over its destination racks.  The same traffic is routed
over Rotor-Push trees, Random-Push trees and demand-oblivious static trees,
and the per-request costs are compared against the bounded-degree composition
guarantee.

Everything here is plan plumbing: :func:`build_datacenter_plan` returns pure
data (one :class:`repro.plans.NetworkPlan` stage per tree algorithm, pinned
equal to ``experiments/plans/datacenter.json`` by the golden tests) and the
``datacenter`` assembler folds the per-stage totals into the scenario's
comparison table.  A parameter study over the same traffic (say, the source
count) is an :class:`~repro.plans.ExperimentPlan` of one
:class:`~repro.plans.NetworkPlan` stage per point.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import PlanError
from repro.network.topology import theoretical_degree_bound
from repro.network.traffic import TrafficSpec
from repro.plans import ExperimentPlan, NetworkPlan, RunConfig
from repro.plans.execute import StageResult, register_assembler
from repro.sim.results import ResultTable
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "DATACENTER_ALGORITHMS",
    "build_datacenter_plan",
    "datacenter_traffic",
]

#: The tree algorithms the scenario compares: the paper's deterministic
#: winner, its randomised twin, and the demand-oblivious baseline.
DATACENTER_ALGORITHMS = ("rotor-push", "random-push", "static-oblivious")

#: Default scenario shape (the former script's constants).
N_RACKS = 64
N_SOURCES = 4
REQUESTS_PER_SOURCE = 2_000
DATACENTER_BASE_SEED = 9


def datacenter_traffic(n_racks: int = N_RACKS, n_sources: int = N_SOURCES) -> TrafficSpec:
    """Describe the scenario's traffic: clustered per-source Markov walks.

    Each service talks mostly to a small cluster of racks (high self-loop and
    neighbour probability), the typical structure of datacenter traces.
    Workload seeds are left unstamped — the plan layer seeds every trial via
    :meth:`TrafficSpec.with_seed`.
    """
    workloads = {
        source: WorkloadSpec.create(
            "markov",
            n_elements=n_racks,
            n_neighbours=4,
            self_loop=0.55,
            neighbour_probability=0.35,
        )
        for source in range(n_sources)
    }
    return TrafficSpec.create(n_racks, workloads, interleaving="round_robin")


def build_datacenter_plan(
    n_racks: int = N_RACKS,
    n_sources: int = N_SOURCES,
    requests_per_source: int = REQUESTS_PER_SOURCE,
    algorithms: Sequence[str] = DATACENTER_ALGORITHMS,
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the datacenter scenario plan: one network stage per algorithm.

    Every stage routes the *same* per-trial traffic (seeds derive from the
    trial index alone), so cost differences between the rows are purely
    algorithmic.
    """
    traffic = datacenter_traffic(n_racks, n_sources)
    config = RunConfig(
        n_requests=requests_per_source,
        n_trials=1,
        base_seed=DATACENTER_BASE_SEED,
        n_jobs=n_jobs,
    )
    stages = tuple(
        (
            algorithm,
            NetworkPlan(
                name=f"datacenter_{algorithm}",
                traffic=traffic,
                algorithm=algorithm,
                config=config,
            ),
        )
        for algorithm in algorithms
    )
    return ExperimentPlan(
        name="datacenter",
        stages=stages,
        assembler="datacenter",
    )


@register_assembler("datacenter")
def _assemble_datacenter(
    plan: ExperimentPlan, stages: List[StageResult]
) -> ResultTable:
    """Fold per-algorithm network stages into the scenario comparison table.

    One row per stage: the stage's aggregate ``"total"`` row renamed into the
    scenario's vocabulary (hops = access cost, reconfigurations = adjustment
    cost), plus the static bounded-degree composition guarantee
    (:func:`~repro.network.topology.theoretical_degree_bound`) of the stage's
    source count.
    """
    if not stages:
        raise PlanError(
            f"assembler 'datacenter' needs at least one network stage, "
            f"plan {plan.name!r} has none"
        )
    table = ResultTable(
        name="datacenter_reconfiguration",
        columns=["tree_algorithm", "avg_hops", "avg_reconfig", "avg_total", "degree_bound"],
    )
    for stage in stages:
        if not isinstance(stage.plan, NetworkPlan) or stage.table is None:
            raise PlanError(
                f"assembler 'datacenter' expects network-plan stages, stage "
                f"{stage.key!r} of plan {plan.name!r} is {type(stage.plan).__name__}"
            )
        total = next(
            row for row in stage.table.rows if row["source"] == "total"
        )
        table.add_row(
            tree_algorithm=stage.plan.algorithm.name,
            avg_hops=total["mean_access_cost"],
            avg_reconfig=total["mean_adjustment_cost"],
            avg_total=total["mean_total_cost"],
            degree_bound=theoretical_degree_bound(stage.plan.n_sources),
        )
    return table

