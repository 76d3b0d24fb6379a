"""Plan (de)serialisation: JSON documents ↔ plan objects, golden plans.

The document format mirrors the plan dataclasses one to one; every document
carries a ``"plan"`` discriminator (``"trial"``, ``"sweep"``, ``"network"``
or ``"experiment"``).  Loading validates the schema *and* the referenced
registry names — :func:`loads` on a document naming an unknown algorithm or
workload kind raises the same eager, name-listing errors as constructing the
plan in Python, so a bad plan file never gets as far as building payloads.

The q1–q5 plan builders' outputs are shipped as *golden plans* under
``src/repro/experiments/plans/``; :func:`load_golden_plan` resolves them by
stem name (``"q1"`` … ``"q5"``, ``"smoke"``) for the CLI and the CI smoke
job.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.algorithms.registry import AlgorithmSpec
from repro.exceptions import PlanError
from repro.network.traffic import TrafficSpec
from repro.plans.model import (
    ExperimentPlan,
    NetworkPlan,
    Plan,
    RunConfig,
    SweepPlan,
    TrialPlan,
)
from repro.workloads.spec import WorkloadSpec, thaw_value

__all__ = [
    "GOLDEN_PLAN_DIR",
    "plan_to_dict",
    "plan_from_dict",
    "dumps",
    "loads",
    "dump",
    "load",
    "golden_plan_names",
    "load_golden_plan",
    "validate_golden_plans",
]

#: Directory holding the shipped golden experiment plans (q1 … q5, smoke).
GOLDEN_PLAN_DIR = Path(__file__).resolve().parent.parent / "experiments" / "plans"


def _params_to_json(params) -> Dict[str, object]:
    # the spec layer's canonical thaw: frozen tuples -> JSON lists
    return {name: thaw_value(value) for name, value in params}


def plan_to_dict(plan: Plan) -> Dict[str, object]:
    """Return the JSON-friendly document describing ``plan``."""
    if isinstance(plan, TrialPlan):
        return {
            "plan": "trial",
            "name": plan.name,
            "n_nodes": plan.n_nodes,
            "workload": plan.workload.to_dict(),
            "algorithms": [spec.to_dict() for spec in plan.algorithms],
            "config": plan.config.to_dict(),
        }
    if isinstance(plan, SweepPlan):
        return {
            "plan": "sweep",
            "name": plan.name,
            "n_nodes": plan.n_nodes,
            "workload": plan.workload.to_dict(),
            "algorithms": [spec.to_dict() for spec in plan.algorithms],
            "points": [_params_to_json(point) for point in plan.points],
            "bind": {key: param for key, param in plan.bind},
            "config": plan.config.to_dict(),
        }
    if isinstance(plan, NetworkPlan):
        return {
            "plan": "network",
            "name": plan.name,
            "n_sources": plan.n_sources,
            "traffic": plan.traffic.to_dict(),
            "algorithm": plan.algorithm.to_dict(),
            "config": plan.config.to_dict(),
        }
    if isinstance(plan, ExperimentPlan):
        return {
            "plan": "experiment",
            "name": plan.name,
            "assembler": plan.assembler,
            "params": _params_to_json(plan.params),
            "config": None if plan.config is None else plan.config.to_dict(),
            "stages": [
                {"key": key, "plan": plan_to_dict(sub)} for key, sub in plan.stages
            ],
        }
    raise PlanError(f"not a plan object: {plan!r}")


def _require(data: Dict[str, object], key: str, context: str) -> object:
    if key not in data:
        raise PlanError(f"{context}: missing required key {key!r}")
    return data[key]


def plan_from_dict(data: Dict[str, object]) -> Plan:
    """Rebuild a plan from :func:`plan_to_dict` output (or equivalent JSON)."""
    if not isinstance(data, dict):
        raise PlanError(f"not a plan document: {data!r}")
    kind = data.get("plan")
    context = f"plan document {data.get('name', '<unnamed>')!r}"
    if kind == "trial":
        return TrialPlan(
            name=str(data.get("name", "trial")),
            n_nodes=int(_require(data, "n_nodes", context)),
            workload=WorkloadSpec.from_dict(_require(data, "workload", context)),
            algorithms=tuple(
                AlgorithmSpec.from_dict(item)
                for item in _require(data, "algorithms", context)
            ),
            config=RunConfig.from_dict(data.get("config") or {}),
        )
    if kind == "sweep":
        points = _require(data, "points", context)
        if not isinstance(points, list):
            raise PlanError(f"{context}: points must be a list of objects")
        bind = data.get("bind") or {}
        if not isinstance(bind, dict):
            raise PlanError(f"{context}: bind must be an object")
        n_nodes = data.get("n_nodes")
        return SweepPlan(
            name=str(data.get("name", "sweep")),
            n_nodes=None if n_nodes is None else int(n_nodes),
            workload=WorkloadSpec.from_dict(_require(data, "workload", context)),
            algorithms=tuple(
                AlgorithmSpec.from_dict(item)
                for item in _require(data, "algorithms", context)
            ),
            points=tuple(dict(point) for point in points),
            bind=bind,
            config=RunConfig.from_dict(data.get("config") or {}),
        )
    if kind == "network":
        n_sources = data.get("n_sources")
        return NetworkPlan(
            name=str(data.get("name", "network")),
            traffic=TrafficSpec.from_dict(_require(data, "traffic", context)),
            algorithm=AlgorithmSpec.from_dict(_require(data, "algorithm", context)),
            config=RunConfig.from_dict(data.get("config") or {}),
            n_sources=None if n_sources is None else int(n_sources),
        )
    if kind == "experiment":
        stages_doc = data.get("stages") or []
        if not isinstance(stages_doc, list):
            raise PlanError(f"{context}: stages must be a list")
        stages = []
        for entry in stages_doc:
            if not isinstance(entry, dict) or "key" not in entry or "plan" not in entry:
                raise PlanError(
                    f"{context}: each stage needs 'key' and 'plan' keys, "
                    f"got {entry!r}"
                )
            stages.append((str(entry["key"]), plan_from_dict(entry["plan"])))
        config = data.get("config")
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise PlanError(f"{context}: params must be an object")
        return ExperimentPlan.create(
            name=str(_require(data, "name", context)),
            stages=tuple(stages),
            assembler=str(data.get("assembler", "tables")),
            params=params,
            config=None if config is None else RunConfig.from_dict(config),
        )
    raise PlanError(
        f"{context}: unknown plan type {kind!r}; expected one of "
        "'trial', 'sweep', 'network', 'experiment'"
    )


def dumps(plan: Plan, indent: int = 2) -> str:
    """Serialise ``plan`` to a JSON string."""
    return json.dumps(plan_to_dict(plan), indent=indent, sort_keys=True)


def loads(text: str) -> Plan:
    """Parse a JSON string into a validated plan."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise PlanError(f"plan document is not valid JSON: {error}") from None
    return plan_from_dict(data)


def dump(plan: Plan, path: Union[str, Path]) -> Path:
    """Write ``plan`` to ``path`` as JSON and return the path."""
    file_path = Path(path)
    file_path.parent.mkdir(parents=True, exist_ok=True)
    file_path.write_text(dumps(plan) + "\n")
    return file_path


def load(path: Union[str, Path]) -> Plan:
    """Read and validate the plan stored at ``path``."""
    file_path = Path(path)
    if not file_path.is_file():
        raise PlanError(f"plan file not found: {file_path}")
    return loads(file_path.read_text())


def golden_plan_names() -> List[str]:
    """Return the stem names of the shipped golden plans, sorted."""
    if not GOLDEN_PLAN_DIR.is_dir():
        return []
    return sorted(path.stem for path in GOLDEN_PLAN_DIR.glob("*.json"))


def load_golden_plan(name: str) -> Plan:
    """Load a shipped golden plan by stem name (``"q1"`` … ``"smoke"``)."""
    path = GOLDEN_PLAN_DIR / f"{name}.json"
    if not path.is_file():
        raise PlanError(
            f"unknown golden plan {name!r}; shipped plans: {golden_plan_names()}"
        )
    return load(path)


def validate_golden_plans() -> List[str]:
    """Load (and thereby schema-validate) every shipped golden plan.

    Used by the CI plan-smoke job; returns the validated names so the log
    shows what was covered.
    """
    names = golden_plan_names()
    if not names:
        raise PlanError(f"no golden plans found under {GOLDEN_PLAN_DIR}")
    for name in names:
        load_golden_plan(name)
    return names
