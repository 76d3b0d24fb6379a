"""Q3 - which algorithm performs best with increasing spatial locality?

Reproduces Figure 4: fix the tree size, sweep the Zipf exponent
``a in {1.001, 1.3, 1.6, 1.9, 2.2}`` and report, per algorithm, the average
access and adjustment cost per request.  The paper's findings: all
self-adjusting algorithms exploit spatial locality (Rotor-Push, Random-Push and
Max-Push achieve similar access costs), the reconfiguration cost pays off
versus Static-Oblivious from roughly ``a = 1.6``, and Static-Opt remains the
cheapest option in these purely spatial scenarios.
"""

from __future__ import annotations

from repro.algorithms.registry import PAPER_ALGORITHMS
from repro.experiments.config import get_scale
from repro.plans import SweepPlan
from repro.workloads.spec import WorkloadSpec

__all__ = ["build_q3_plan"]


def build_q3_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> SweepPlan:
    """Build the Figure 4 plan: an ``a`` sweep of a Zipf workload template."""
    config = get_scale(scale)
    return SweepPlan(
        name="fig4_spatial_locality",
        workload=WorkloadSpec.create("zipf", n_elements=config.n_nodes),
        algorithms=tuple(PAPER_ALGORITHMS),
        points=tuple({"a": float(a)} for a in config.zipf_exponents),
        bind={"a": "exponent"},
        n_nodes=config.n_nodes,
        config=config.run_config(n_jobs=n_jobs),
    )

