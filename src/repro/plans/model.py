"""Immutable experiment-plan objects: specs all the way down.

This module completes the declarative layer started by
:class:`repro.workloads.spec.WorkloadSpec` (PR 2) and
:class:`repro.algorithms.registry.AlgorithmSpec`: every knob of an experiment
run — what to serve, on what tree, how many trials, how to parallelise —
lives in a frozen, JSON round-trippable plan object, validated against the
algorithm and workload registries *at construction*.  Experiments become
shareable artifacts instead of imperative code:

* :class:`RunConfig` — the run-shape half (trials, requests per trial, seed
  policy, record mode) plus the fan-out knobs
  (worker processes, retries, timeout, cache directory, executor); the one
  argument :class:`~repro.sim.runner.TrialRunner` takes besides the tree
  size, and the knobs every plan run fans out with.
* :class:`TrialPlan` — one multi-trial comparison: a workload template, a
  tuple of algorithm specs, a tree size and a config.
* :class:`SweepPlan` — a parameter sweep: a list of points, a binding from
  point keys to workload-template parameters, algorithms and a config.
* :class:`NetworkPlan` — one multi-source network scenario: a
  :class:`~repro.network.traffic.TrafficSpec` (per-source workload specs +
  interleaving policy), the tree algorithm every source runs, and a config
  whose ``n_requests`` counts requests *per source*.
* :class:`ExperimentPlan` — a named composition: sub-plans (trial, sweep,
  network or nested experiment) plus a registered *assembler* that turns
  stage results into the figure-specific output (difference tables,
  histograms, per-source cost reports, ...).

Plans never hold RNG state or request data; executing one
(:func:`repro.plans.run`) compiles it to payloads whose seeds all derive from
``config.base_seed`` exactly as :class:`~repro.sim.runner.TrialRunner`
derives them, so a plan re-run — today, on another machine, after a JSON
round-trip — reproduces results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.algorithms.registry import AlgorithmSpec
from repro.exceptions import ExperimentError, PlanError, WorkloadError
from repro.fanout import check_executor, check_n_jobs
from repro.network.traffic import TrafficSpec
from repro.workloads.spec import (
    WorkloadSpec,
    check_kind,
    check_universe,
    freeze_params,
)

__all__ = [
    "RunConfig",
    "TrialPlan",
    "SweepPlan",
    "NetworkPlan",
    "ExperimentPlan",
    "Plan",
    "plan_with_overrides",
]


# plan params freeze through the spec layer's canonical convention, so spec
# and plan equality/hashing stay bit-compatible
_freeze_params = freeze_params


#: Run-config keys of older plan documents that no longer mean anything;
#: loading ignores them (``backend`` picked a placement store that is gone;
#: streams are always cut at :data:`~repro.workloads.spec.DEFAULT_CHUNK_SIZE`,
#: whatever ``chunk_size`` says).
RETIRED_CONFIG_KEYS = ("backend", "chunk_size")


@dataclass(frozen=True)
class RunConfig:
    """The run-shape of an experiment: everything that is not *what* to run.

    Attributes
    ----------
    n_requests:
        Requests per trial.
    n_trials:
        Number of independent trials.
    base_seed:
        Root of the seed policy.  Trial ``i`` derives its workload seed as
        ``base_seed + i``, its placement seed as ``base_seed + 10_000 + i``
        and its algorithm seed as ``base_seed + 20_000 + i`` — the
        derivation :class:`repro.sim.runner.TrialRunner` and the compiled
        plans share, so a plan pins results by pinning one integer.
    keep_records:
        Record mode: whether per-request cost records are retained
        (memory-heavy at paper scale).
    n_jobs:
        Worker processes for the (trial, algorithm) fan-out; ``1`` = serial,
        negative = all CPUs.  A throughput knob only — results are
        bit-identical for every value.
    worker_timeout:
        Stall detector of the parallel fan-out, in seconds: if no payload
        completes within this window the pool is presumed hung, its workers
        are terminated and the unfinished payloads retried (see
        :func:`repro.sim.parallel.map_ordered`).  ``None`` (default)
        disables the detector.  A robustness knob only — results are
        bit-identical for every value.
    max_retries:
        Retry budget of the resilient executor: per-payload resubmissions
        after a transient worker exception, and pool-rebuild rounds after a
        worker death or stall (after which execution degrades to in-process
        serial).  A robustness knob only, never a results knob.
    cache_dir:
        Checkpoint-store directory for crash-safe resumable campaigns: when
        set, every completed trial result is persisted (content-addressed,
        one verified record appended per result) as it arrives, and ``repro.run(plan,
        resume=True)`` skips trials whose verified entries already exist.
        ``None`` (default) disables checkpointing.
    executor:
        Remote executor address for distributed multi-host execution:
        ``"tcp://HOST:PORT[,HOST:PORT...][?lease=SECONDS&heartbeat=
        SECONDS]"`` names the worker-daemon fleet (``repro worker --listen
        ...``) payloads are leased to (see :mod:`repro.dist`).  ``None``
        (default) runs locally.  Validated as an *address format* here;
        reachability is the coordinator's business at run time, and an
        unreachable fleet degrades to local execution rather than failing.
        A placement knob only — results are byte-identical wherever the
        payloads land.
    """

    n_requests: int = 10_000
    n_trials: int = 3
    base_seed: int = 0
    keep_records: bool = False
    n_jobs: int = 1
    worker_timeout: Optional[float] = None
    max_retries: int = 2
    cache_dir: Optional[str] = None
    executor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_trials <= 0:
            raise PlanError(f"n_trials must be positive, got {self.n_trials}")
        if self.n_requests < 0:
            raise PlanError(
                f"n_requests must be non-negative, got {self.n_requests}"
            )
        try:
            check_n_jobs(self.n_jobs)
        except ExperimentError as error:
            # plan documents fail with plan-level errors, whatever layer the
            # delegated validator lives in
            raise PlanError(str(error)) from None
        if self.worker_timeout is not None and not self.worker_timeout > 0:
            raise PlanError(
                f"worker_timeout must be positive (seconds) or None, got "
                f"{self.worker_timeout!r}"
            )
        if not isinstance(self.max_retries, int) or isinstance(
            self.max_retries, bool
        ) or self.max_retries < 0:
            raise PlanError(
                f"max_retries must be a non-negative integer, got "
                f"{self.max_retries!r}"
            )
        if self.cache_dir is not None and (
            not isinstance(self.cache_dir, str) or not self.cache_dir
        ):
            raise PlanError(
                f"cache_dir must be a non-empty path string or None, got "
                f"{self.cache_dir!r}"
            )
        if self.executor is not None:
            try:
                check_executor(self.executor)
            except ExperimentError as error:
                raise PlanError(str(error)) from None

    def with_overrides(
        self,
        n_jobs: Optional[int] = None,
        n_trials: Optional[int] = None,
        n_requests: Optional[int] = None,
        worker_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        cache_dir: Optional[str] = None,
        executor: Optional[str] = None,
    ) -> "RunConfig":
        """Return a copy with the given (non-``None``) knobs replaced."""
        updates: Dict[str, object] = {}
        if n_jobs is not None:
            updates["n_jobs"] = n_jobs
        if n_trials is not None:
            updates["n_trials"] = n_trials
        if n_requests is not None:
            updates["n_requests"] = n_requests
        if worker_timeout is not None:
            updates["worker_timeout"] = worker_timeout
        if max_retries is not None:
            updates["max_retries"] = max_retries
        if cache_dir is not None:
            updates["cache_dir"] = cache_dir
        if executor is not None:
            updates["executor"] = executor
        return replace(self, **updates) if updates else self

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly representation."""
        return {
            "n_requests": self.n_requests,
            "n_trials": self.n_trials,
            "base_seed": self.base_seed,
            "keep_records": self.keep_records,
            "n_jobs": self.n_jobs,
            "worker_timeout": self.worker_timeout,
            "max_retries": self.max_retries,
            "cache_dir": self.cache_dir,
            "executor": self.executor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` output (or equivalent JSON)."""
        if not isinstance(data, dict):
            raise PlanError(f"not a run-config document: {data!r}")
        data = {
            key: value for key, value in data.items() if key not in RETIRED_CONFIG_KEYS
        }
        unknown = sorted(set(data) - {spec.name for spec in fields(cls)})
        if unknown:
            raise PlanError(f"unknown run-config keys: {unknown}")
        return cls(**data)


def _coerce_algorithms(
    algorithms: object, owner: str
) -> Tuple[AlgorithmSpec, ...]:
    """Normalise an algorithms field to a tuple of validated specs."""
    if isinstance(algorithms, (str, AlgorithmSpec)):
        algorithms = (algorithms,)
    try:
        specs = tuple(AlgorithmSpec.coerce(item) for item in algorithms)
    except TypeError:
        raise PlanError(
            f"{owner}: algorithms must be an iterable of names/specs, "
            f"got {algorithms!r}"
        ) from None
    if not specs:
        raise PlanError(f"{owner}: a plan needs at least one algorithm")
    seen: Dict[str, AlgorithmSpec] = {}
    for spec in specs:
        if spec.name in seen:
            raise PlanError(
                f"{owner}: duplicate algorithm {spec.name!r}; registry names "
                "must be unique within one plan"
            )
        seen[spec.name] = spec
    return specs


def _check_workload_template(
    workload: object, n_nodes: Optional[int], owner: str
) -> WorkloadSpec:
    """Validate a workload template against the registry and the tree size."""
    if not isinstance(workload, WorkloadSpec):
        raise PlanError(
            f"{owner}: workload must be a WorkloadSpec, got {workload!r}"
        )
    check_kind(workload.kind)  # names the bad key and lists registered kinds
    if n_nodes is None:
        return workload
    try:
        # the spec layer's shared universe check (also used by TrafficSpec)
        return check_universe(workload, n_nodes, owner)
    except WorkloadError as error:
        # plan documents fail with plan-level errors (same convention as
        # RunConfig delegating to the n_jobs validator)
        raise PlanError(str(error)) from None


@dataclass(frozen=True)
class TrialPlan:
    """One multi-trial (workload × algorithms) comparison, as data.

    ``workload`` is a seedless *template*: trial ``i`` runs on
    ``workload.with_seed(config.base_seed + i)``, so all algorithms of a
    trial see the same stream and the whole plan is reproducible from
    ``config.base_seed`` alone.
    """

    n_nodes: int
    workload: WorkloadSpec
    algorithms: Tuple[AlgorithmSpec, ...]
    config: RunConfig = RunConfig()
    name: str = "trial"

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise PlanError(f"n_nodes must be positive, got {self.n_nodes}")
        object.__setattr__(
            self, "algorithms", _coerce_algorithms(self.algorithms, self._owner)
        )
        _check_workload_template(self.workload, self.n_nodes, self._owner)
        if not isinstance(self.config, RunConfig):
            raise PlanError(f"{self._owner}: config must be a RunConfig")

    @property
    def _owner(self) -> str:
        return f"trial plan {self.name!r}"

    def algorithm_names(self) -> List[str]:
        """Return the registry names of the planned algorithms, in order."""
        return [spec.name for spec in self.algorithms]


@dataclass(frozen=True)
class SweepPlan:
    """A parameter sweep over points, as data.

    ``points`` is a tuple of frozen parameter points; ``bind`` maps point
    keys onto workload-template parameter names (e.g. ``p ->
    repeat_probability``), so the sweep stays declarative: the workload for a
    point is the template with the bound parameters replaced and the
    per-trial seed stamped on.  Unbound point keys (like ``n_nodes``, which
    overrides the tree size per point) are structural and never reach the
    workload constructor.
    """

    workload: WorkloadSpec
    algorithms: Tuple[AlgorithmSpec, ...]
    points: Tuple[Tuple[Tuple[str, object], ...], ...]
    bind: Tuple[Tuple[str, str], ...] = ()
    n_nodes: Optional[int] = None
    config: RunConfig = RunConfig()
    name: str = "sweep"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "algorithms", _coerce_algorithms(self.algorithms, self._owner)
        )
        points = self.points
        try:
            frozen_points = tuple(
                point if isinstance(point, tuple) else _freeze_params(dict(point))
                for point in points
            )
        except (TypeError, ValueError):
            raise PlanError(
                f"{self._owner}: points must be mappings of parameter values, "
                f"got {points!r}"
            ) from None
        if not frozen_points:
            raise PlanError(f"{self._owner}: a sweep needs at least one point")
        object.__setattr__(self, "points", frozen_points)
        bind = self.bind
        if isinstance(bind, dict):
            bind = tuple(sorted(bind.items()))
        object.__setattr__(self, "bind", tuple(tuple(pair) for pair in bind))
        for point_key, param in self.bind:
            if not isinstance(point_key, str) or not isinstance(param, str):
                raise PlanError(
                    f"{self._owner}: bind entries must map point keys to "
                    f"workload parameter names, got {(point_key, param)!r}"
                )
        # Cross-validate bind against points *at construction*, so a typo'd
        # binding cannot pass eager validation and then fail (or silently
        # sweep nothing) mid-run.  ``n_nodes`` is the one structural point
        # key (it overrides the tree size per point, never a workload param).
        point_keys = {key for point in self.points for key, _value in point}
        bound_keys = {key for key, _param in self.bind}
        dangling = sorted(bound_keys - point_keys)
        if dangling:
            raise PlanError(
                f"{self._owner}: bind keys {dangling} appear in no sweep "
                f"point; point keys are {sorted(point_keys)}"
            )
        unbound = sorted(point_keys - bound_keys - {"n_nodes"})
        if unbound:
            raise PlanError(
                f"{self._owner}: point keys {unbound} are not bound to any "
                "workload parameter — add them to bind (the structural "
                "'n_nodes' key is the only exception)"
            )
        _check_workload_template(self.workload, None, self._owner)
        if self.n_nodes is not None and self.n_nodes <= 0:
            raise PlanError(f"n_nodes must be positive, got {self.n_nodes}")
        if not isinstance(self.config, RunConfig):
            raise PlanError(f"{self._owner}: config must be a RunConfig")

    @property
    def _owner(self) -> str:
        return f"sweep plan {self.name!r}"

    def point_dicts(self) -> List[Dict[str, object]]:
        """Return the sweep points as plain dictionaries, in order."""
        return [dict(point) for point in self.points]

    def bind_dict(self) -> Dict[str, str]:
        """Return the point-key → workload-parameter binding as a dict."""
        return dict(self.bind)

    def bound_workload(self, point: Dict[str, object]) -> WorkloadSpec:
        """Return the workload template with ``point``'s bound keys applied.

        An unbound point reuses the template itself: re-freezing its params
        would copy embedded data such as a fixed sequence.
        """
        bind = self.bind_dict()
        bound = {bind[key]: value for key, value in point.items() if key in bind}
        if not bound:
            return self.workload
        return WorkloadSpec.create(
            self.workload.kind, **{**self.workload.param_dict(), **bound}
        )

    def algorithm_names(self) -> List[str]:
        """Return the registry names of the planned algorithms, in order."""
        return [spec.name for spec in self.algorithms]


@dataclass(frozen=True)
class NetworkPlan:
    """One multi-source network scenario, as data.

    The network twin of :class:`TrialPlan`: ``traffic`` is a
    :class:`~repro.network.traffic.TrafficSpec` *template* (per-source
    workload specs, interleaving policy, weights) whose seeds are stamped per
    trial — trial ``i`` runs on ``traffic.with_seed(config.base_seed + i)``
    over fresh per-source trees
    (:func:`~repro.network.multi_source.source_tree`) whose base seed
    derives from the trial index alone (striding past the
    per-source seed window, see
    :data:`repro.constants.NETWORK_TRIAL_SEED_STRIDE`), so the whole
    scenario reproduces from ``config.base_seed`` alone, at every
    ``n_jobs``, with no seed stream shared between trials or sources.

    ``config.n_requests`` counts requests *per source* (the trace totals
    ``n_sources × n_requests``); ``n_sources`` is derived from the traffic
    spec when omitted and cross-checked against it when given.

    The traffic's ``interleaving`` and ``weights`` change no result: each
    source serves its own tree, so a trial never draws the interleave, and
    ``multisource`` prints the same table under every policy.  They stay
    part of the plan (and of its cache keys) for the traces that
    :meth:`~repro.network.traffic.TrafficSpec.iter_trace` orders.
    """

    traffic: TrafficSpec
    algorithm: AlgorithmSpec
    config: RunConfig = RunConfig()
    n_sources: Optional[int] = None
    name: str = "network"

    def __post_init__(self) -> None:
        if not isinstance(self.traffic, TrafficSpec):
            raise PlanError(
                f"{self._owner}: traffic must be a TrafficSpec, got "
                f"{self.traffic!r}"
            )
        # unknown names keep their eager AlgorithmError (bad key + registry
        # listing), matching TrialPlan's validation conventions
        object.__setattr__(self, "algorithm", AlgorithmSpec.coerce(self.algorithm))
        declared = len(self.traffic.sources)
        if self.n_sources is None:
            object.__setattr__(self, "n_sources", declared)
        elif self.n_sources != declared:
            raise PlanError(
                f"{self._owner}: n_sources is {self.n_sources} but the "
                f"traffic spec declares {declared} sources"
            )
        if not isinstance(self.config, RunConfig):
            raise PlanError(f"{self._owner}: config must be a RunConfig")
        if self.config.keep_records:
            # per-request records would live and die inside the worker-side
            # source trees — all memory cost, no observable output; fail
            # eagerly instead of silently paying for nothing at paper scale
            raise PlanError(
                f"{self._owner}: keep_records is not supported for network "
                "plans (per-request records never leave the worker's source "
                "trees); network results are per-source totals"
            )

    @property
    def _owner(self) -> str:
        return f"network plan {self.name!r}"

    @property
    def n_nodes(self) -> int:
        """Number of network nodes (taken from the traffic spec)."""
        return self.traffic.n_nodes

    def source_ids(self) -> List[int]:
        """Return the planned source identifiers, ascending."""
        return self.traffic.source_ids()


@dataclass(frozen=True)
class ExperimentPlan:
    """A named composition of sub-plans plus a result assembler.

    ``stages`` is an ordered tuple of ``(key, plan)`` pairs — each plan a
    :class:`TrialPlan`, :class:`SweepPlan`, :class:`NetworkPlan` or nested
    :class:`ExperimentPlan`.
    After all stages ran, the registered ``assembler`` (see
    :func:`repro.plans.execute.register_assembler`) combines their results
    into the experiment's output: the built-in ``"table"``/``"tables"``
    assemblers pass results through; the q1–q5 modules register the
    figure-specific ones (difference tables, wireframe grids, histograms).
    Assembler-only experiments (no stages) describe runs whose payload
    structure is bespoke — e.g. the Q4 histogram's paired payloads — through
    ``params`` and ``config`` alone; their payload assembler builds the
    payloads when the plan compiles.  Every config of one plan tree must
    agree on the fan-out knobs (``n_jobs``, ``worker_timeout``,
    ``max_retries``, ``cache_dir``, ``executor``): a run fans out once.
    """

    name: str
    stages: Tuple[Tuple[str, "Plan"], ...] = ()
    assembler: str = "tables"
    params: Tuple[Tuple[str, object], ...] = ()
    config: Optional[RunConfig] = None

    def __post_init__(self) -> None:
        stages = self.stages
        if isinstance(stages, dict):
            stages = tuple(stages.items())
        try:
            stages = tuple((str(key), plan) for key, plan in stages)
        except (TypeError, ValueError):
            raise PlanError(
                f"{self._owner}: stages must be (key, plan) pairs, got {stages!r}"
            ) from None
        keys = [key for key, _ in stages]
        if len(set(keys)) != len(keys):
            raise PlanError(f"{self._owner}: duplicate stage keys in {keys}")
        for key, plan in stages:
            if not isinstance(
                plan,
                (TrialPlan, SweepPlan, NetworkPlan, ExperimentPlan),
            ):
                raise PlanError(
                    f"{self._owner}: stage {key!r} is not a plan object: {plan!r}"
                )
        object.__setattr__(self, "stages", stages)
        params = self.params
        if isinstance(params, dict):
            params = _freeze_params(params)
        object.__setattr__(self, "params", tuple(params))
        if not isinstance(self.assembler, str) or not self.assembler:
            raise PlanError(f"{self._owner}: assembler must be a non-empty name")
        if self.config is not None and not isinstance(self.config, RunConfig):
            raise PlanError(f"{self._owner}: config must be a RunConfig or None")

    @property
    def _owner(self) -> str:
        return f"experiment plan {self.name!r}"

    def param_dict(self) -> Dict[str, object]:
        """Return the assembler parameters as a plain dictionary."""
        return dict(self.params)

    @classmethod
    def create(
        cls,
        name: str,
        stages: object = (),
        assembler: str = "tables",
        params: Optional[Dict[str, object]] = None,
        config: Optional[RunConfig] = None,
    ) -> "ExperimentPlan":
        """Build an experiment plan from plain mappings (frozen on entry)."""
        return cls(
            name=name,
            stages=stages,
            assembler=assembler,
            params=_freeze_params(params or {}),
            config=config,
        )


Plan = Union[TrialPlan, SweepPlan, NetworkPlan, ExperimentPlan]


def plan_with_overrides(
    plan: Plan,
    n_jobs: Optional[int] = None,
    n_trials: Optional[int] = None,
    n_requests: Optional[int] = None,
    worker_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    cache_dir: Optional[str] = None,
    executor: Optional[str] = None,
) -> Plan:
    """Return ``plan`` with run-shape knobs overridden throughout the tree.

    The CLI's override semantics: a flag given on the command line wins over
    whatever the plan document says, recursively — every ``RunConfig`` of
    every nested stage is replaced.  ``None`` means "keep the plan's value".
    Besides the perf knob (``n_jobs``, which never changes results) the
    run *size* can be overridden too
    (``n_trials``/``n_requests`` — the CLI's ``--trials``/``--requests``),
    e.g. to smoke-test a paper-scale plan document at toy scale, and so can
    the resilience knobs (``worker_timeout``/``max_retries``/``cache_dir``/
    ``executor`` — the CLI's ``--max-retries``/``--cache-dir``/
    ``--executor``), which are robustness knobs only and never change
    results either.
    """
    overrides = (
        n_jobs,
        n_trials,
        n_requests,
        worker_timeout,
        max_retries,
        cache_dir,
        executor,
    )
    if all(value is None for value in overrides):
        return plan
    overridden = _override_configs(plan, overrides)
    if not _carries_config(overridden):
        # a tree without any RunConfig (pure analysis, such as table1) still
        # takes the run's knobs, so e.g. a CLI --cache-dir is never dropped
        overridden = replace(overridden, config=RunConfig().with_overrides(*overrides))
    return overridden


def _override_configs(plan: Plan, overrides: Tuple[object, ...]) -> Plan:
    """Apply ``overrides`` to every ``RunConfig`` of ``plan``'s tree."""
    if isinstance(plan, (TrialPlan, SweepPlan, NetworkPlan)):
        return replace(plan, config=plan.config.with_overrides(*overrides))
    stages = tuple((key, _override_configs(sub, overrides)) for key, sub in plan.stages)
    config = plan.config
    if config is not None:
        config = config.with_overrides(*overrides)
    return replace(plan, stages=stages, config=config)


def _carries_config(plan: Plan) -> bool:
    """Whether any plan of ``plan``'s tree has a ``RunConfig``."""
    return plan.config is not None or any(
        _carries_config(sub) for _key, sub in getattr(plan, "stages", ())
    )
