"""Declarative experiment plans: specs all the way down, one ``run()``.

This package turns an experiment's entire configuration into immutable,
JSON round-trippable data:

* :class:`~repro.plans.model.RunConfig` — run shape (trials, requests, seed
  policy, ``n_jobs``, record mode); streams are always cut into chunks of
  :data:`~repro.workloads.spec.DEFAULT_CHUNK_SIZE`, which no result depends on;
* :class:`~repro.plans.model.TrialPlan` /
  :class:`~repro.plans.model.SweepPlan` /
  :class:`~repro.plans.model.ExperimentPlan` — composable descriptions of
  what to run, validated against the algorithm and workload registries at
  construction;
* :func:`run` — the one entrypoint executing any plan: compile the plan tree
  to payloads, fan them out once, reduce to the plan's output;
* :func:`load` / :func:`dump` (and ``loads``/``dumps``) — the JSON document
  format, plus the shipped golden plans for q1–q5
  (:func:`load_golden_plan`).

Quickstart::

    import repro
    from repro.experiments import build_q2_plan

    plan = build_q2_plan(scale="tiny")        # an ExperimentPlan (pure data)
    repro.plans.dump(plan, "q2.json")          # share it
    table = repro.run(repro.plans.load("q2.json"))   # run it anywhere

``repro.plans.execute`` (and therefore :func:`run`) is loaded lazily so the
low-level simulation modules can import the plan *model* without dragging in
the experiment layer.
"""

from __future__ import annotations

from repro.plans.io import (
    GOLDEN_PLAN_DIR,
    dump,
    dumps,
    golden_plan_names,
    load,
    load_golden_plan,
    loads,
    plan_from_dict,
    plan_to_dict,
    validate_golden_plans,
)
from repro.plans.model import (
    ExperimentPlan,
    NetworkPlan,
    Plan,
    RunConfig,
    SweepPlan,
    TrialPlan,
    plan_with_overrides,
)

__all__ = [
    "ExperimentPlan",
    "GOLDEN_PLAN_DIR",
    "NetworkPlan",
    "Plan",
    "RunConfig",
    "StageResult",
    "SweepPlan",
    "TrialPlan",
    "dump",
    "dumps",
    "golden_plan_names",
    "last_run_stats",
    "load",
    "load_golden_plan",
    "loads",
    "plan_from_dict",
    "plan_to_dict",
    "plan_with_overrides",
    "register_assembler",
    "run",
    "validate_golden_plans",
]

#: Names resolved lazily from :mod:`repro.plans.execute` (PEP 562) so that
#: importing the plan model from low-level modules cannot create an import
#: cycle through the executor.
_EXECUTE_NAMES = {
    "run",
    "last_run_stats",
    "register_assembler",
    "StageResult",
}


def __getattr__(name: str):
    if name in _EXECUTE_NAMES:
        from repro.plans import execute

        return getattr(execute, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _EXECUTE_NAMES)
