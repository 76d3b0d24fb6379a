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
* a simulation engine with trial payloads and their fan-out (:mod:`repro.sim`);
* a reconfigurable-datacenter substrate composing per-source trees into a
  bounded-degree multi-source network (:mod:`repro.network`);
* experiment harnesses reproducing every figure and table of the paper's
  evaluation (:mod:`repro.experiments`) and a command line (``repro``);
* a declarative plan layer (:mod:`repro.plans`): immutable, JSON
  round-trippable descriptions of whole experiments, executed through the
  single entrypoint :func:`repro.run`.

Quickstart::

    from repro import simulate, CombinedLocalityWorkload

    workload = CombinedLocalityWorkload(n_elements=255, zipf_exponent=1.6,
                                        repeat_probability=0.5, seed=1)
    result = simulate("rotor-push", workload.generate(10_000), n_nodes=255,
                      placement_seed=1)
    print(result.average_total_cost)

With an ``int`` placement seed, :func:`simulate` serves the whole sequence
in one call of the C kernel when it loads.  An algorithm built with
:func:`make_algorithm` keeps its tree in Python and always serves through
its checked reference: the same results, more slowly.

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

``import repro`` loads no other module of the package: each public name is
imported from its defining module on first access (PEP 562), and so are the
names of the subpackages, so a process pays only for what it runs.
"""

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def _lazy_exports(
    package: str, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package whose public
    names load on first access, so a process imports only what it uses.

    ``exports`` maps each defining module to the names it supplies; a name
    equal to the module's last dotted part is that module itself.  A
    resolved name is cached in the package, so each one is looked up once.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module_name = where.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__


#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.algorithms.base": ("OnlineTreeAlgorithm", "RunResult"),
    "repro.algorithms.max_push": ("MaxPush",),
    "repro.algorithms.move_half": ("MoveHalf",),
    "repro.algorithms.move_to_front": ("MoveToFrontTree",),
    "repro.algorithms.random_push": ("RandomPush",),
    "repro.algorithms.registry": (
        "ALGORITHMS",
        "PAPER_ALGORITHMS",
        "SELF_ADJUSTING_ALGORITHMS",
        "AlgorithmSpec",
        "available_algorithms",
        "make_algorithm",
    ),
    "repro.algorithms.rotor_push": ("RotorPush",),
    "repro.algorithms.static_oblivious": ("StaticOblivious",),
    "repro.algorithms.static_opt": ("StaticOpt",),
    "repro.analysis.bounds": ("empirical_competitive_ratio",),
    "repro.analysis.complexity_map": ("trace_complexity",),
    "repro.analysis.entropy": ("empirical_entropy",),
    "repro.analysis.potential": ("PotentialTracker",),
    "repro.analysis.working_set": ("ranks_of_sequence", "working_set_bound"),
    "repro.core.cost": ("CostLedger", "RequestCost"),
    "repro.core.rotor": ("RotorState",),
    "repro.core.state": ("TreeNetwork",),
    "repro.core.tree": ("CompleteBinaryTree",),
    "repro.network.multi_source": ("MultiSourceNetwork",),
    "repro.network.single_source": ("SingleSourceTreeNetwork",),
    "repro.network.traffic": ("TrafficSpec",),
    "repro.sim.engine": ("simulate",),
    "repro.sim.results": ("ResultTable",),
    "repro.sim.runner": ("TrialRunner",),
    "repro.workloads.composite": ("CombinedLocalityWorkload",),
    "repro.workloads.corpus": ("CorpusWorkload",),
    "repro.workloads.markov": ("MarkovWorkload",),
    "repro.workloads.spec": ("WorkloadSpec",),
    "repro.workloads.temporal": ("TemporalWorkload",),
    "repro.workloads.uniform": ("UniformWorkload",),
    "repro.workloads.zipf": ("ZipfWorkload",),
    "repro.plans": ("plans",),
    "repro.plans.execute": ("run",),
    "repro.plans.model": (
        "ExperimentPlan",
        "NetworkPlan",
        "RunConfig",
        "SweepPlan",
        "TrialPlan",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

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
    "TreeNetwork",
    "TrialPlan",
    "TrialRunner",
    "UniformWorkload",
    "WorkloadSpec",
    "ZipfWorkload",
    "__version__",
    "available_algorithms",
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
