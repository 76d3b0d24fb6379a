"""Q2 - which algorithm performs best with increasing temporal locality?

Reproduces Figure 3: fix the tree size, sweep the repeat probability
``p in {0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9}`` and plot, for every algorithm,
the average access cost and average adjustment cost per request.  The paper's
findings: all self-adjusting algorithms benefit from temporal locality;
Rotor-Push and Random-Push are the best and overtake Static-Opt a bit after
``p = 0.75``; Max-Push pays a high adjustment cost throughout.
"""

from __future__ import annotations

from repro.algorithms.registry import PAPER_ALGORITHMS
from repro.experiments.config import get_scale
from repro.plans import SweepPlan
from repro.workloads.spec import WorkloadSpec

__all__ = ["build_q2_plan"]


def build_q2_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> SweepPlan:
    """Build the Figure 3 plan: a ``p`` sweep of a temporal workload template."""
    config = get_scale(scale)
    return SweepPlan(
        name="fig3_temporal_locality",
        workload=WorkloadSpec.create("temporal", n_elements=config.n_nodes),
        algorithms=tuple(PAPER_ALGORITHMS),
        points=tuple({"p": float(p)} for p in config.temporal_probabilities),
        bind={"p": "repeat_probability"},
        n_nodes=config.n_nodes,
        config=config.run_config(n_jobs=n_jobs),
    )

