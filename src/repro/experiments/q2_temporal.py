"""Q2 - which algorithm performs best with increasing temporal locality?

Reproduces Figure 3: fix the tree size, sweep the repeat probability
``p in {0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9}`` and plot, for every algorithm,
the average access cost and average adjustment cost per request.  The paper's
findings: all self-adjusting algorithms benefit from temporal locality;
Rotor-Push and Random-Push are the best and overtake Static-Opt a bit after
``p = 0.75``; Max-Push pays a high adjustment cost throughout.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.algorithms.registry import PAPER_ALGORITHMS
from repro.analysis.entropy import empirical_entropy
from repro.experiments.config import get_scale
from repro.plans import SweepPlan
from repro.plans.execute import run as run_plan
from repro.sim.results import ResultTable
from repro.workloads.spec import WorkloadSpec
from repro.workloads.temporal import TemporalWorkload

__all__ = ["build_q2_plan", "run_q2", "series_for_plot", "sequence_entropies"]


def build_q2_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
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
        config=config.run_config(n_jobs=n_jobs, chunk_size=chunk_size),
    )


def run_q2(
    scale: str = "tiny",
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> ResultTable:
    """Run the Figure 3 sweep and return its data table."""
    return run_plan(build_q2_plan(scale, n_jobs, chunk_size))


def series_for_plot(table: ResultTable, metric: str = "mean_total_cost") -> Dict[str, List[float]]:
    """Return per-algorithm series over the ``p`` grid for plotting."""
    series: Dict[str, List[float]] = {}
    probabilities = sorted({float(row["p"]) for row in table.rows})
    for algorithm in sorted({str(row["algorithm"]) for row in table.rows}):
        values: List[float] = []
        for probability in probabilities:
            match = [
                row
                for row in table.rows
                if row["algorithm"] == algorithm and float(row["p"]) == probability
            ]
            values.append(float(match[0][metric]) if match else 0.0)
        series[algorithm] = values
    return series


def sequence_entropies(scale: str = "tiny", n_samples: int = 1) -> Dict[float, float]:
    """Return the measured empirical entropy for every ``p`` of the grid.

    The paper reports these entropies (15.95 down to 15.16 at 65,535 nodes) to
    substantiate that increasing ``p`` indeed increases temporal locality; the
    same monotone decrease holds at every scale.
    """
    config = get_scale(scale)
    entropies: Dict[float, float] = {}
    for probability in config.temporal_probabilities:
        values = []
        for sample in range(max(1, n_samples)):
            workload = TemporalWorkload(
                config.n_nodes, probability, seed=config.base_seed + sample
            )
            values.append(empirical_entropy(workload.generate(config.n_requests)))
        entropies[probability] = sum(values) / len(values)
    return entropies
