"""The paper's adversarial constructions as one declarative plan.

Three theory results demonstrated empirically (formerly the imperative
``examples/adversarial_analysis.py`` script):

* **Lemma 8** — Rotor-Push lacks the working-set *property*: the adaptive
  adversary confines its requests to ``2x - 1`` elements, yet the access cost
  keeps climbing to the full tree depth;
* **Section 1.1** — the naive Move-To-Front generalisation is not
  constant-competitive: on a round-robin path sequence it pays ~depth per
  request, the :math:`\\Omega(\\log n / \\log\\log n)` gap;
* **Theorem 7** — the credit/potential inequality of the 12-competitiveness
  proof, checked round by round on random input.

The plan is assembler-only: adaptive adversaries are closed-loop (each
request depends on the algorithm's current state), so they cannot be a
workload spec — instead the construction itself is registry-validated data
(:class:`repro.workloads.AdversarySpec`) and the ``adversarial`` payload
assembler ships it to the workers as :class:`repro.sim.runner.AdversarySource`
payloads.  Every (construction, depth) cell is one payload, so ``--jobs``
fans the whole analysis out and ``cache_dir`` checkpoints it like any other
plan.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.potential import PotentialTracker
from repro.analysis.working_set import max_working_set_violation
from repro.plans import ExperimentPlan, RunConfig
from repro.plans.execute import register_payload_assembler
from repro.sim.results import ResultTable
from repro.sim.runner import AdversarySource, TrialPayload
from repro.workloads import UniformWorkload
from repro.workloads.adversarial import AdversarySpec

__all__ = [
    "build_adversarial_plan",
]

#: Default construction shapes (the former script's constants).
LEMMA8_DEPTHS = (4, 6, 8, 10)
LEMMA8_REQUESTS = 2_500
MTF_DEPTHS = (3, 5, 7, 9, 11)
MTF_CYCLES = 30
THEOREM7_DEPTH = 6
THEOREM7_REQUESTS = 3_000
THEOREM7_SEED = 3


def build_adversarial_plan(
    lemma8_depths: Sequence[int] = LEMMA8_DEPTHS,
    lemma8_requests: int = LEMMA8_REQUESTS,
    mtf_depths: Sequence[int] = MTF_DEPTHS,
    mtf_cycles: int = MTF_CYCLES,
    theorem7_depth: int = THEOREM7_DEPTH,
    theorem7_requests: int = THEOREM7_REQUESTS,
    theorem7_seed: int = THEOREM7_SEED,
    n_jobs: int = 1,
) -> ExperimentPlan:
    """Build the adversarial-analysis plan (assembler-only).

    The parameters *are* the experiment: each depth list names one
    :class:`~repro.workloads.AdversarySpec` per entry; construction and
    simulation happen worker-side when the plan runs.
    """
    return ExperimentPlan.create(
        name="adversarial",
        assembler="adversarial",
        params={
            "lemma8_depths": tuple(int(depth) for depth in lemma8_depths),
            "lemma8_requests": int(lemma8_requests),
            "mtf_depths": tuple(int(depth) for depth in mtf_depths),
            "mtf_cycles": int(mtf_cycles),
            "theorem7_depth": int(theorem7_depth),
            "theorem7_requests": int(theorem7_requests),
            "theorem7_seed": int(theorem7_seed),
        },
        config=RunConfig(
            n_requests=0,  # request counts are per-construction parameters
            n_trials=1,
            base_seed=0,
            n_jobs=n_jobs,
        ),
    )


def _lemma8_table(
    depths: Sequence[int], payload_results: List
) -> ResultTable:
    """Fold the Lemma 8 payload results into the working-set violation table."""
    table = ResultTable(
        name="lemma8",
        columns=[
            "depth",
            "working_set_limit",
            "max_access_cost",
            "cost_to_log_rank_ratio",
        ],
    )
    for depth, result in zip(depths, payload_results):
        records = result.per_request
        sequence = [record.element for record in records]
        table.add_row(
            depth=depth,
            working_set_limit=2 * (depth + 1) - 1,
            max_access_cost=max(record.access_cost for record in records),
            cost_to_log_rank_ratio=max_working_set_violation(sequence, records),
        )
    return table


def _mtf_table(depths: Sequence[int], payload_results: List) -> ResultTable:
    """Fold the Section 1.1 payload results into the MTF lower-bound table."""
    table = ResultTable(
        name="mtf_lower_bound",
        columns=["depth", "n_requests", "mean_access_cost", "path_length"],
    )
    for depth, result in zip(depths, payload_results):
        table.add_row(
            depth=depth,
            n_requests=result.n_requests,
            mean_access_cost=result.total_access_cost / result.n_requests,
            path_length=depth + 1,
        )
    return table


def _theorem7_table(depth: int, n_requests: int, seed: int) -> ResultTable:
    """Check the Theorem 7 per-round amortised inequality on random input.

    Runs in the parent: the tracker observes every round of one serve pass,
    so there is nothing to fan out.
    """
    tracker = PotentialTracker(depth=depth)
    workload = UniformWorkload(tracker.algorithm.network.tree.n_nodes, seed=seed)
    tracker.run(workload.generate(n_requests))
    summary = tracker.summary()
    table = ResultTable(
        name="theorem7",
        columns=["depth", "rounds", "violations", "max_ratio"],
    )
    table.add_row(
        depth=depth,
        rounds=int(summary["rounds"]),
        violations=int(summary["violations"]),
        max_ratio=summary["max_ratio"],
    )
    return table


@register_payload_assembler("adversarial")
def _compile_adversarial(plan: ExperimentPlan):
    """One payload per (construction, depth) cell, folded into three tables."""
    params = plan.param_dict()
    lemma8_depths = [int(depth) for depth in params["lemma8_depths"]]
    mtf_depths = [int(depth) for depth in params["mtf_depths"]]

    payloads: List[TrialPayload] = []
    for index, depth in enumerate(lemma8_depths):
        # Lemma 8 needs the per-request records (max costs + violation ratio).
        payloads.append(
            TrialPayload(
                algorithm="rotor-push",
                source=AdversarySource(
                    adversary=AdversarySpec.create("rotor-working-set", depth=depth),
                    n_requests=int(params["lemma8_requests"]),
                ),
                n_nodes=(1 << (depth + 1)) - 1,
                placement_seed=None,
                algorithm_seed=None,
                keep_records=True,
                trial=index,
                metadata={"scenario": "lemma8", "depth": depth},
            )
        )
    for index, depth in enumerate(mtf_depths):
        payloads.append(
            TrialPayload(
                algorithm="move-to-front",
                source=AdversarySource(
                    adversary=AdversarySpec.create("mtf-lower-bound", depth=depth),
                    n_requests=int(params["mtf_cycles"]) * (depth + 1),
                ),
                n_nodes=(1 << (depth + 1)) - 1,
                placement_seed=None,
                algorithm_seed=None,
                keep_records=False,
                trial=index,
                metadata={"scenario": "mtf_lower_bound", "depth": depth},
            )
        )
    n_lemma8 = len(lemma8_depths)

    def reduce(results) -> Dict[str, ResultTable]:
        return {
            "lemma8": _lemma8_table(lemma8_depths, results[:n_lemma8]),
            "mtf_lower_bound": _mtf_table(mtf_depths, results[n_lemma8:]),
            "theorem7": _theorem7_table(
                int(params["theorem7_depth"]),
                int(params["theorem7_requests"]),
                int(params["theorem7_seed"]),
            ),
        }

    return payloads, reduce

