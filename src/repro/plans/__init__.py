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

Every name loads on first access (PEP 562): ``repro.plans.execute`` (and
therefore :func:`run`) only when a plan runs, so the low-level simulation
modules can import the plan *model* without dragging in the experiment layer.
"""

from __future__ import annotations

from repro import _lazy_exports

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

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.plans.execute": ("StageResult", "last_run_stats", "register_assembler", "run"),
    "repro.plans.io": (
        "GOLDEN_PLAN_DIR",
        "dump",
        "dumps",
        "golden_plan_names",
        "load",
        "load_golden_plan",
        "loads",
        "plan_from_dict",
        "plan_to_dict",
        "validate_golden_plans",
    ),
    "repro.plans.model": (
        "ExperimentPlan",
        "NetworkPlan",
        "Plan",
        "RunConfig",
        "SweepPlan",
        "TrialPlan",
        "plan_with_overrides",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
