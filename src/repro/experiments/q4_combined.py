"""Q4 - Rotor-Push under combined locality, and Rotor-Push vs Random-Push.

Reproduces the two panels of Figure 5:

* **Figure 5a** - the wireframe of the total-cost difference between Rotor-Push
  and Static-Oblivious over the grid of temporal (``p``) and spatial (``a``)
  locality parameters.  Combined locality gives the largest improvements.
* **Figure 5b** - the histogram (log-scale y-axis) of the *per-request* access
  cost difference between Rotor-Push and Random-Push over uniform request
  sequences.  The distribution concentrates sharply around zero with a mean of
  roughly ``-0.0003`` in the paper; the reproduction checks the same
  concentration and near-zero mean.

Both panels are declarative plans.  The wireframe is a
:class:`repro.plans.SweepPlan` over the ``(p, a)`` grid whose generic sweep
table the ``q4_wireframe`` assembler reshapes into the difference table.  The
histogram's payload structure is bespoke (paired Rotor/Random payloads
serving the *same* uniform stream from the *same* initial placement, with
their own seed derivation), so it ships as an assembler-only
:class:`repro.plans.ExperimentPlan` whose ``q4_histogram`` payload assembler
builds those payloads from the plan's config at compile time; they join the
run's single fan-out like any stage's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algorithms.registry import RotorPush, RandomPush, StaticOblivious
from repro.exceptions import PlanError
from repro.experiments.config import get_scale
from repro.plans import ExperimentPlan, SweepPlan
from repro.plans.execute import (
    StageResult,
    register_assembler,
    register_payload_assembler,
)
from repro.sim.metrics import Histogram, histogram_of_differences, per_request_cost_difference
from repro.sim.results import ResultTable
from repro.sim.runner import SpecSource, TrialPayload
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "build_q4_plan",
    "build_q4_wireframe_plan",
    "build_q4_histogram_plan",
    "wireframe_grid",
]


def build_q4_wireframe_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the Figure 5a plan: a ``(p, a)`` grid sweep plus the reshaper."""
    config = get_scale(scale)
    algorithms = (RotorPush.name, StaticOblivious.name)
    points = tuple(
        {"p": float(p), "a": float(a)}
        for p in config.q4_probabilities
        for a in config.q4_exponents
    )
    sweep = SweepPlan(
        name="fig5a_combined_locality_grid",
        workload=WorkloadSpec.create("combined-locality", n_elements=config.n_nodes),
        algorithms=algorithms,
        points=points,
        bind={"p": "repeat_probability", "a": "zipf_exponent"},
        n_nodes=config.n_nodes,
        config=config.run_config(n_jobs=n_jobs),
    )
    return ExperimentPlan.create(
        name="fig5a_combined_locality",
        stages=(("grid", sweep),),
        assembler="q4_wireframe",
        params={"rotor": RotorPush.name, "baseline": StaticOblivious.name},
    )


@register_assembler("q4_wireframe")
def _assemble_q4_wireframe(
    plan: ExperimentPlan, stages: List[StageResult]
) -> ResultTable:
    """Reshape the grid sweep's table into the Figure 5a difference table."""
    if len(stages) != 1 or stages[0].table is None:
        raise PlanError("assembler 'q4_wireframe' expects one sweep stage")
    params = plan.param_dict()
    rotor, baseline = str(params["rotor"]), str(params["baseline"])
    costs: Dict[Tuple[float, float], Dict[str, float]] = {}
    order: List[Tuple[float, float]] = []
    for row in stages[0].table.rows:
        point = (float(row["p"]), float(row["a"]))
        if point not in costs:
            costs[point] = {}
            order.append(point)
        costs[point][str(row["algorithm"])] = float(row["mean_total_cost"])
    table = ResultTable(
        name=plan.name,
        columns=[
            "p",
            "a",
            "rotor_total_cost",
            "static_oblivious_total_cost",
            "difference",
        ],
    )
    for probability, exponent in order:
        cell = costs[(probability, exponent)]
        rotor_cost = cell[rotor]
        static_cost = cell[baseline]
        table.add_row(
            p=probability,
            a=exponent,
            rotor_total_cost=rotor_cost,
            static_oblivious_total_cost=static_cost,
            difference=rotor_cost - static_cost,
        )
    return table


def wireframe_grid(table: ResultTable) -> Tuple[List[float], List[float], List[List[float]]]:
    """Re-shape the Figure 5a table into (p values, a values, difference grid)."""
    probabilities = sorted({float(row["p"]) for row in table.rows})
    exponents = sorted({float(row["a"]) for row in table.rows})
    grid: List[List[float]] = []
    for probability in probabilities:
        row_values: List[float] = []
        for exponent in exponents:
            match = [
                row
                for row in table.rows
                if float(row["p"]) == probability and float(row["a"]) == exponent
            ]
            row_values.append(float(match[0]["difference"]) if match else 0.0)
        grid.append(row_values)
    return probabilities, exponents, grid


def build_q4_histogram_plan(
    scale: str = "tiny",
    n_sequences: Optional[int] = None,
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the Figure 5b plan (assembler-only: bespoke paired payloads)."""
    config = get_scale(scale)
    return ExperimentPlan.create(
        name="fig5b_rotor_vs_random",
        assembler="q4_histogram",
        params={
            "n_nodes": config.n_nodes,
            "n_sequences": n_sequences,
            "rotor": RotorPush.name,
            "random": RandomPush.name,
        },
        config=config.run_config(keep_records=True, n_jobs=n_jobs),
    )


@register_payload_assembler("q4_histogram")
def _compile_q4_histogram(plan: ExperimentPlan):
    """Build the paired Rotor/Random payloads of Figure 5b and their fold."""
    params = plan.param_dict()
    config = plan.config
    n_nodes = int(params["n_nodes"])
    n_sequences = params.get("n_sequences")
    if n_sequences is None:
        n_sequences = max(2, config.n_trials)
    n_sequences = int(n_sequences)
    rotor, random_push = str(params["rotor"]), str(params["random"])
    base_seed = config.base_seed
    payloads: List[TrialPayload] = []
    for index in range(n_sequences):
        spec = WorkloadSpec.create(
            "uniform", seed=base_seed + index, n_elements=n_nodes
        )
        # both algorithms of the pair serve this stream: shared lets the
        # worker generate it once
        source = SpecSource(spec, config.n_requests, shared=True)
        placement_seed = base_seed + 500 + index
        payloads.append(
            TrialPayload(
                algorithm=rotor,
                source=source,
                n_nodes=n_nodes,
                placement_seed=placement_seed,
                algorithm_seed=None,
                keep_records=True,
                trial=index,
            )
        )
        payloads.append(
            TrialPayload(
                algorithm=random_push,
                source=source,
                n_nodes=n_nodes,
                placement_seed=placement_seed,
                algorithm_seed=base_seed + 900 + index,
                keep_records=True,
                trial=index,
            )
        )

    def reduce(results) -> Tuple[Histogram, Dict[str, float]]:
        differences: List[int] = []
        for pair_start in range(0, len(results), 2):
            rotor_result = results[pair_start]
            random_result = results[pair_start + 1]
            differences.extend(
                per_request_cost_difference(rotor_result, random_result, which="access")
            )
        histogram = histogram_of_differences(differences)
        summary = {
            "mean_difference": histogram.mean(),
            "max_abs_difference": float(
                max((abs(v) for v in histogram.support()), default=0)
            ),
            "n_samples": float(histogram.total),
            "n_sequences": float(n_sequences),
        }
        return histogram, summary

    return payloads, reduce


def build_q4_plan(
    scale: str = "tiny",
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the full Q4 plan: wireframe and histogram keyed by figure."""
    return ExperimentPlan.create(
        name="q4_combined_locality",
        stages=(
            ("fig5a", build_q4_wireframe_plan(scale, n_jobs)),
            ("fig5b", build_q4_histogram_plan(scale, None, n_jobs)),
        ),
        assembler="tables",
    )

