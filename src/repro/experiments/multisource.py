"""Multi-source network scenarios as declarative plans.

The datacenter-facing companion of q1–q5: instead of one source serving one
request sequence, a :class:`repro.plans.NetworkPlan` describes a whole
reconfigurable network — every source owns a self-adjusting tree over the
shared node set and a :class:`repro.network.traffic.TrafficSpec` describes the
traffic each source routes.  The shipped ``multisource`` golden plan compares
the paper's deterministic rotor algorithm against Max-Push (Strict-MRU) on the
same skewed multi-source traffic, reported per source and in aggregate by the
built-in ``trace_costs`` assembler.

Everything here is plan plumbing: :func:`build_multisource_plan` returns pure
data (pinned equal to ``experiments/plans/multisource.json`` by the golden
tests), executed through :func:`repro.run` like every other experiment.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.config import get_scale
from repro.network.traffic import TrafficSpec
from repro.plans import ExperimentPlan, NetworkPlan
from repro.workloads.spec import WorkloadSpec

__all__ = ["build_multisource_plan"]

#: The two tree algorithms the golden scenario compares (the paper's
#: deterministic winner versus the working-set-optimal MRU maintainer).
MULTISOURCE_ALGORITHMS = ("rotor-push", "max-push")


def _scenario_traffic(n_nodes: int, n_sources: int) -> TrafficSpec:
    """Describe the golden scenario's traffic: skewed sources, mixed locality.

    Even-indexed sources send Zipf-distributed traffic (spatial locality),
    odd-indexed sources temporal-locality traffic; the interleaving is
    ``weighted`` with weights decaying by source index, modelling the
    elephant/mice skew of datacenter workloads (the first sources front-load
    most of the traffic).  Workload seeds are left unstamped — the plan layer
    seeds every trial via :meth:`TrafficSpec.with_seed`.
    """
    source_workloads = {}
    weights = {}
    for index in range(n_sources):
        if index % 2 == 0:
            workload = WorkloadSpec.create(
                "zipf", n_elements=n_nodes, exponent=1.6
            )
        else:
            workload = WorkloadSpec.create(
                "temporal", n_elements=n_nodes, repeat_probability=0.6
            )
        source_workloads[index] = workload
        weights[index] = 1.0 / (1 + index)
    return TrafficSpec.create(
        n_nodes,
        source_workloads,
        interleaving="weighted",
        weights=weights,
    )


def build_multisource_plan(
    scale: str = "tiny",
    n_sources: int = 8,
    algorithms: Sequence[str] = MULTISOURCE_ALGORITHMS,
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the multi-source scenario plan: one network stage per algorithm.

    ``config.n_requests`` of each stage counts requests *per source* — the
    scale's request budget is divided by the source count so the whole trace
    stays comparable to a single-source run at the same scale.
    """
    config = get_scale(scale)
    traffic = _scenario_traffic(config.n_nodes, n_sources)
    run_config = config.run_config(
        n_requests=max(1, config.n_requests // n_sources), n_jobs=n_jobs
    )
    stages = tuple(
        (
            algorithm,
            NetworkPlan(
                name=f"multisource_{algorithm}",
                traffic=traffic,
                algorithm=algorithm,
                config=run_config,
            ),
        )
        for algorithm in algorithms
    )
    return ExperimentPlan(
        name="multisource",
        stages=stages,
        assembler="trace_costs",
    )

