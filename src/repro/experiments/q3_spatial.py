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

from typing import Dict, List, Optional

from repro.algorithms.registry import PAPER_ALGORITHMS
from repro.analysis.entropy import empirical_entropy
from repro.experiments.config import get_scale
from repro.plans import SweepPlan
from repro.plans.execute import run as run_plan
from repro.sim.results import ResultTable
from repro.workloads.spec import WorkloadSpec
from repro.workloads.zipf import ZipfWorkload

__all__ = ["build_q3_plan", "run_q3", "series_for_plot", "sequence_entropies"]


def build_q3_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
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
        config=config.run_config(n_jobs=n_jobs, chunk_size=chunk_size),
    )


def run_q3(
    scale: str = "tiny",
    n_jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> ResultTable:
    """Run the Figure 4 sweep and return its data table."""
    return run_plan(build_q3_plan(scale, n_jobs, chunk_size))


def series_for_plot(table: ResultTable, metric: str = "mean_total_cost") -> Dict[str, List[float]]:
    """Return per-algorithm series over the Zipf exponent grid for plotting."""
    series: Dict[str, List[float]] = {}
    exponents = sorted({float(row["a"]) for row in table.rows})
    for algorithm in sorted({str(row["algorithm"]) for row in table.rows}):
        values: List[float] = []
        for exponent in exponents:
            match = [
                row
                for row in table.rows
                if row["algorithm"] == algorithm and float(row["a"]) == exponent
            ]
            values.append(float(match[0][metric]) if match else 0.0)
        series[algorithm] = values
    return series


def sequence_entropies(scale: str = "tiny", n_samples: int = 1) -> Dict[float, float]:
    """Return the measured empirical entropy for every Zipf exponent of the grid.

    The paper reports entropies (11.07, 6.47, 3.88, 2.63, 1.92) at 65,535 nodes;
    the same monotone decrease with ``a`` holds at every scale.
    """
    config = get_scale(scale)
    entropies: Dict[float, float] = {}
    for exponent in config.zipf_exponents:
        values = []
        for sample in range(max(1, n_samples)):
            workload = ZipfWorkload(
                config.n_nodes, exponent, seed=config.base_seed + sample
            )
            values.append(empirical_entropy(workload.generate(config.n_requests)))
        entropies[exponent] = sum(values) / len(values)
    return entropies
