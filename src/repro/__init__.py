"""repro - Deterministic Self-Adjusting Tree Networks Using Rotor Walks.

A from-scratch Python reproduction of the ICDCS 2022 paper by Avin, Bienkowski,
Salem, Sama, Schmid and Schmidt.  The library provides:

* the complete-binary-tree substrate with the paper's cost model
  (:mod:`repro.core`);
* all single-source self-adjusting tree algorithms - Rotor-Push, Random-Push,
  Move-Half, Max-Push (Strict-MRU), the static baselines and the naive
  Move-To-Front generalisation (:mod:`repro.algorithms`);
* the analytical machinery: working sets, flip-ranks, the potential/credit
  functions of the competitive proofs, entropy and trace-complexity estimators
  (:mod:`repro.analysis`);
* workload generators with controlled temporal / spatial locality, adversarial
  constructions and a corpus pipeline (:mod:`repro.workloads`);
* a simulation engine with multi-trial runners (:mod:`repro.sim`);
* a reconfigurable-datacenter substrate composing per-source trees into a
  bounded-degree multi-source network (:mod:`repro.network`);
* experiment harnesses reproducing every figure and table of the paper's
  evaluation (:mod:`repro.experiments`) and a command line (``repro``);
* a declarative plan layer (:mod:`repro.plans`): immutable, JSON
  round-trippable descriptions of whole experiments, executed through the
  single entrypoint :func:`repro.run`.

Quickstart::

    from repro import make_algorithm, CombinedLocalityWorkload

    workload = CombinedLocalityWorkload(n_elements=255, zipf_exponent=1.6,
                                        repeat_probability=0.5, seed=1)
    algorithm = make_algorithm("rotor-push", n_nodes=255, placement_seed=1)
    result = algorithm.run(workload.generate(10_000))
    print(result.average_total_cost)

Declarative quickstart::

    import repro
    from repro import RunConfig, TrialPlan, WorkloadSpec

    plan = TrialPlan(
        n_nodes=255,
        workload=WorkloadSpec.create("zipf", n_elements=255, exponent=1.6),
        algorithms=("rotor-push", "static-oblivious"),
        config=RunConfig(n_requests=10_000, n_trials=3),
    )
    table = repro.run(plan)          # == repro.run(repro.plans.loads(json))
    print(table.format_text())
"""

from repro.algorithms import (
    ALGORITHMS,
    PAPER_ALGORITHMS,
    SELF_ADJUSTING_ALGORITHMS,
    AlgorithmSpec,
    MaxPush,
    MoveHalf,
    MoveToFrontTree,
    OnlineTreeAlgorithm,
    RandomPush,
    RotorPush,
    RunResult,
    StaticOblivious,
    StaticOpt,
    available_algorithms,
    make_algorithm,
)
from repro.analysis import (
    PotentialTracker,
    empirical_competitive_ratio,
    empirical_entropy,
    ranks_of_sequence,
    trace_complexity,
    working_set_bound,
)
from repro.core import (
    CompleteBinaryTree,
    CostLedger,
    RequestCost,
    RotorState,
    TreeNetwork,
)
from repro.network import (
    MultiSourceNetwork,
    SingleSourceTreeNetwork,
    TrafficSpec,
    TrafficTrace,
)
from repro.sim import ResultTable, TrialRunner, compare_algorithms, simulate
from repro.workloads import (
    CombinedLocalityWorkload,
    CorpusWorkload,
    MarkovWorkload,
    TemporalWorkload,
    UniformWorkload,
    WorkloadSpec,
    ZipfWorkload,
)
from repro import plans
from repro.plans import (
    ExperimentPlan,
    NetworkPlan,
    RunConfig,
    SweepPlan,
    TrafficSweepPlan,
    TrialPlan,
    run,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "CombinedLocalityWorkload",
    "CompleteBinaryTree",
    "CorpusWorkload",
    "CostLedger",
    "ExperimentPlan",
    "MarkovWorkload",
    "MaxPush",
    "MoveHalf",
    "MoveToFrontTree",
    "MultiSourceNetwork",
    "NetworkPlan",
    "OnlineTreeAlgorithm",
    "PAPER_ALGORITHMS",
    "PotentialTracker",
    "RandomPush",
    "RequestCost",
    "ResultTable",
    "RotorPush",
    "RotorState",
    "RunConfig",
    "RunResult",
    "SELF_ADJUSTING_ALGORITHMS",
    "SingleSourceTreeNetwork",
    "StaticOblivious",
    "StaticOpt",
    "SweepPlan",
    "TemporalWorkload",
    "TrafficSpec",
    "TrafficSweepPlan",
    "TrafficTrace",
    "TreeNetwork",
    "TrialPlan",
    "TrialRunner",
    "UniformWorkload",
    "WorkloadSpec",
    "ZipfWorkload",
    "__version__",
    "available_algorithms",
    "compare_algorithms",
    "empirical_competitive_ratio",
    "empirical_entropy",
    "make_algorithm",
    "plans",
    "ranks_of_sequence",
    "run",
    "simulate",
    "trace_complexity",
    "working_set_bound",
]
