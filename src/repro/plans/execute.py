"""Plan execution: one entrypoint dispatching to the existing machinery.

:func:`run` is the public face (re-exported as ``repro.run``): it takes any
plan object — :class:`~repro.plans.model.TrialPlan`,
:class:`~repro.plans.model.SweepPlan` or
:class:`~repro.plans.model.ExperimentPlan` — and dispatches to the
runner/sweep infrastructure that the imperative API has always used.
Nothing about the execution semantics is new: a plan run is bit-identical
to the equivalent hand-written ``TrialRunner``/``ParameterSweep`` code,
pinned by the golden-plan equivalence tests.

Experiment plans additionally go through an *assembler*: a registered
function that turns the executed stages into the experiment's output (the
generic ``"table"``/``"tables"`` assemblers live here; the figure-specific
ones are registered by the :mod:`repro.experiments` modules at import time
and resolved lazily, mirroring the workload-kind registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.exceptions import PlanError
from repro.plans.model import (
    ExperimentPlan,
    NetworkPlan,
    Plan,
    SweepPlan,
    TrafficSweepPlan,
    TrialPlan,
    plan_with_overrides,
)
from repro.resilience.context import (
    ExecutionContext,
    ResilienceStats,
    activate_context,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.store import ResultStore
from repro.sim.results import ResultTable, summarise_values
from repro.sim.runner import (
    AggregatedOutcome,
    TrafficSource,
    TrialOutcome,
    TrialPayload,
    TrialRunner,
    execute_payloads,
)
from repro.sim.sweep import ParameterSweep
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec

__all__ = [
    "StageResult",
    "last_run_stats",
    "register_assembler",
    "registered_assemblers",
    "run",
]

#: Columns of the table a bare :class:`TrialPlan` produces.
TRIAL_TABLE_COLUMNS = [
    "algorithm",
    "mean_access_cost",
    "mean_adjustment_cost",
    "mean_total_cost",
    "n_trials",
]

#: Trial stride of the network base seed shipped in network payloads.
#: :class:`~repro.network.multi_source.MultiSourceNetwork` derives per-source
#: seeds as ``base + source`` (placement) and ``base + 100_000 + source``
#: (algorithm), so consecutive trials must be spaced further apart than the
#: largest such offset or trial ``i``'s source ``s + 1`` would reuse trial
#: ``i + 1``'s source-``s`` randomness and the "independent" trials would
#: correlate.  One million clears the offsets of any realistic tree
#: (``100_000 + n_nodes`` with ``n_nodes`` up to ~900k).
NETWORK_TRIAL_SEED_STRIDE = 1_000_000

#: Columns of the per-source table a :class:`NetworkPlan` produces.  The
#: ``source`` column holds node identifiers plus one final ``"total"``
#: aggregate row; costs are per-request means over the plan's trials.
NETWORK_TABLE_COLUMNS = [
    "source",
    "n_requests",
    "mean_access_cost",
    "mean_adjustment_cost",
    "mean_total_cost",
    "n_trials",
]

#: Columns of the per-source cost table shared by the live serve engine
#: (:meth:`repro.serve.engine.ServeEngine.cost_table`) and the
#: ``replay_totals`` assembler below.  Totals are exact integers (never
#: per-request means), so the live table and its replay compare bit-for-bit.
REPLAY_TABLE_COLUMNS = [
    "source",
    "n_requests",
    "total_access_cost",
    "total_adjustment_cost",
    "total_cost",
]


@dataclass
class StageResult:
    """What one executed stage hands to the enclosing assembler.

    ``result`` is the stage's public output (what :func:`run` would have
    returned for the stage's plan alone); ``table`` is that output when it is
    a :class:`~repro.sim.results.ResultTable`; ``aggregated`` carries the
    per-algorithm :class:`~repro.sim.runner.AggregatedOutcome` map for trial
    stages, so assemblers (e.g. the Q1 difference table) work from the exact
    aggregates instead of re-parsing rendered rows; ``outcomes`` carries the
    raw per-trial outcome map for trial stages, so assemblers that need
    exact integer totals (e.g. ``replay_totals``) never reconstruct them
    from floating-point means.
    """

    key: str
    plan: Plan
    result: object
    table: Optional[ResultTable] = None
    aggregated: Optional[Dict[str, AggregatedOutcome]] = None
    outcomes: Optional[Dict[str, List["TrialOutcome"]]] = None


#: Registered experiment assemblers: name -> fn(plan, stages) -> result.
_ASSEMBLERS: Dict[str, Callable[[ExperimentPlan, List[StageResult]], object]] = {}


def register_assembler(name: str):
    """Decorator registering an experiment assembler under ``name``."""

    def decorate(fn):
        _ASSEMBLERS[name] = fn
        return fn

    return decorate


def registered_assemblers() -> List[str]:
    """Return the sorted names of all registered assemblers."""
    _ensure_experiment_assemblers()
    return sorted(_ASSEMBLERS)


def _ensure_experiment_assemblers() -> None:
    """Import the experiment package once so its assemblers are registered."""
    import repro.experiments  # noqa: F401  (imports register the assemblers)


def _assembler(name: str):
    fn = _ASSEMBLERS.get(name)
    if fn is None:
        _ensure_experiment_assemblers()
        fn = _ASSEMBLERS.get(name)
    if fn is None:
        raise PlanError(
            f"unknown assembler {name!r}; registered assemblers: "
            f"{sorted(_ASSEMBLERS)}"
        )
    return fn


@register_assembler("table")
def _assemble_single_table(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Pass through the single stage's result."""
    if len(stages) != 1:
        raise PlanError(
            f"assembler 'table' expects exactly one stage, plan {plan.name!r} "
            f"has {len(stages)}"
        )
    return stages[0].result


@register_assembler("tables")
def _assemble_tables(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Return the stage results keyed by stage name (the q1/q4/q5 shape)."""
    return {stage.key: stage.result for stage in stages}


@register_assembler("trace_costs")
def _assemble_trace_costs(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Merge network-stage tables into one per-source route-cost report.

    Every stage must be a :class:`~repro.plans.model.NetworkPlan`; the output
    table carries one row per (stage, source) plus each stage's ``"total"``
    aggregate row, labelled with the stage key and the stage's algorithm so
    multi-scenario experiments (e.g. the shipped ``multisource`` golden plan)
    read as one comparison.
    """
    if not stages:
        raise PlanError(
            f"assembler 'trace_costs' needs at least one network stage, "
            f"plan {plan.name!r} has none"
        )
    table = ResultTable(
        name=plan.name, columns=["scenario", "algorithm"] + NETWORK_TABLE_COLUMNS
    )
    for stage in stages:
        if not isinstance(stage.plan, NetworkPlan) or stage.table is None:
            raise PlanError(
                f"assembler 'trace_costs' expects network-plan stages, stage "
                f"{stage.key!r} of plan {plan.name!r} is {type(stage.plan).__name__}"
            )
        for row in stage.table.rows:
            table.add_row(
                scenario=stage.key,
                algorithm=stage.plan.algorithm.name,
                **row,
            )
    return table


@register_assembler("replay_totals")
def _assemble_replay_totals(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Merge per-source replay stages into one exact-total cost table.

    The assembler of the plans :func:`repro.serve.replay.build_replay_plan`
    produces: every stage is a single-algorithm, single-trial
    :class:`~repro.plans.model.TrialPlan` replaying one source's recorded
    fixed sequence, keyed by the source name.  The output is the live
    engine's cost table, rebuilt offline: one row per source with *integer*
    totals straight from the stage's :class:`~repro.algorithms.base.RunResult`
    (never reconstructed from per-request means, which would not round-trip
    through IEEE floats), plus a ``"total"`` aggregate row.
    """
    table = ResultTable(name=plan.name, columns=list(REPLAY_TABLE_COLUMNS))
    totals = {"n_requests": 0, "access": 0, "adjustment": 0}
    for stage in stages:
        if not isinstance(stage.plan, TrialPlan) or not stage.outcomes:
            raise PlanError(
                f"assembler 'replay_totals' expects trial-plan stages with "
                f"outcomes, stage {stage.key!r} of plan {plan.name!r} is "
                f"{type(stage.plan).__name__}"
            )
        trials = [
            outcome for outcomes in stage.outcomes.values() for outcome in outcomes
        ]
        if len(trials) != 1:
            raise PlanError(
                f"assembler 'replay_totals': stage {stage.key!r} of plan "
                f"{plan.name!r} ran {len(trials)} trials, expected exactly 1"
            )
        result = trials[0].result
        table.add_row(
            source=stage.key,
            n_requests=result.n_requests,
            total_access_cost=result.total_access_cost,
            total_adjustment_cost=result.total_adjustment_cost,
            total_cost=result.total_cost,
        )
        totals["n_requests"] += result.n_requests
        totals["access"] += result.total_access_cost
        totals["adjustment"] += result.total_adjustment_cost
    table.add_row(
        source="total",
        n_requests=totals["n_requests"],
        total_access_cost=totals["access"],
        total_adjustment_cost=totals["adjustment"],
        total_cost=totals["access"] + totals["adjustment"],
    )
    return table


def _execute_trial_plan(plan: TrialPlan, key: str = "") -> StageResult:
    runner = TrialRunner(n_nodes=plan.n_nodes, config=plan.config)
    names = plan.algorithm_names()
    algorithm_kwargs = {
        spec.name: spec.param_dict() for spec in plan.algorithms if spec.params
    }
    workload: WorkloadSpec = plan.workload

    def factory(seed: int) -> WorkloadSpec:
        return workload.with_seed(seed)

    outcomes = runner.run(names, factory, algorithm_kwargs or None)
    aggregated = TrialRunner.aggregate(outcomes)
    table = ResultTable(name=plan.name, columns=list(TRIAL_TABLE_COLUMNS))
    for name in names:
        summary = aggregated[name]
        table.add_row(
            algorithm=name,
            mean_access_cost=summary.mean_access_cost,
            mean_adjustment_cost=summary.mean_adjustment_cost,
            mean_total_cost=summary.mean_total_cost,
            n_trials=summary.n_trials,
        )
    return StageResult(
        key=key,
        plan=plan,
        result=table,
        table=table,
        aggregated=aggregated,
        outcomes=outcomes,
    )


def _execute_sweep_plan(plan: SweepPlan, key: str = "") -> StageResult:
    config = plan.config
    bind = plan.bind_dict()
    template = plan.workload
    base_params = template.param_dict()

    def factory(point: Dict[str, object], seed: int) -> WorkloadSpec:
        params = dict(base_params)
        for point_key, value in point.items():
            target = bind.get(point_key)
            if target is not None:
                params[target] = value
        return WorkloadSpec.create(template.kind, seed=seed, **params)

    algorithm_kwargs = {
        spec.name: spec.param_dict() for spec in plan.algorithms if spec.params
    }
    sweep = ParameterSweep(
        points=plan.point_dicts(),
        workload_factory=factory,
        algorithms=plan.algorithm_names(),
        n_nodes=plan.n_nodes,
        algorithm_kwargs=algorithm_kwargs or None,
        config=config,
    )
    table = sweep.run(table_name=plan.name)
    return StageResult(key=key, plan=plan, result=table, table=table)


def build_network_payloads(plan: NetworkPlan) -> List[TrialPayload]:
    """Build one spec-only payload per trial of a network plan.

    The network counterpart of :meth:`TrialRunner.build_payloads`: trial
    ``i`` ships the traffic template re-seeded with ``base_seed + i``
    (stamping the interleaving and every per-source workload seed, see
    :meth:`~repro.network.traffic.TrafficSpec.with_seed`) and the network
    base seed ``base_seed + 10_000 + i * NETWORK_TRIAL_SEED_STRIDE`` in the
    payload's ``placement_seed`` slot — a trial-index-only derivation like
    the single-source runners', with the stride keeping the per-source seed
    windows of different trials disjoint.  Payloads are therefore
    independent of where and in which order they execute, and nothing is
    generated here: the parent process never holds a trace.
    """
    config = plan.config
    chunk = DEFAULT_CHUNK_SIZE if config.chunk_size is None else config.chunk_size
    payloads: List[TrialPayload] = []
    for trial in range(config.n_trials):
        payloads.append(
            TrialPayload(
                algorithm=plan.algorithm,
                source=TrafficSource(
                    traffic=plan.traffic.with_seed(config.base_seed + trial),
                    requests_per_source=config.n_requests,
                    chunk_size=chunk,
                ),
                n_nodes=plan.traffic.n_nodes,
                placement_seed=config.base_seed
                + 10_000
                + trial * NETWORK_TRIAL_SEED_STRIDE,
                algorithm_seed=None,
                keep_records=config.keep_records,
                trial=trial,
            )
        )
    return payloads


def _execute_network_plan(plan: NetworkPlan, key: str = "") -> StageResult:
    payloads = build_network_payloads(plan)
    config = plan.config
    results = execute_payloads(
        payloads,
        config.n_jobs,
        worker_timeout=config.worker_timeout,
        retry=RetryPolicy.for_config(config),
        cache_dir=config.cache_dir,
        executor=config.executor,
    )
    table = ResultTable(name=plan.name, columns=list(NETWORK_TABLE_COLUMNS))
    n_trials = len(results)
    per_trial_columns = [result.metadata["per_source"] for result in results]
    sources = per_trial_columns[0]["source"] if per_trial_columns else []
    for index, source in enumerate(sources):
        requests = int(per_trial_columns[0]["n_requests"][index])
        means = {
            column: summarise_values(
                [
                    trial_columns[column][index] / max(1, trial_columns["n_requests"][index])
                    for trial_columns in per_trial_columns
                ]
            )["mean"]
            for column in ("total_access_cost", "total_adjustment_cost", "total_cost")
        }
        table.add_row(
            source=int(source),
            n_requests=requests,
            mean_access_cost=means["total_access_cost"],
            mean_adjustment_cost=means["total_adjustment_cost"],
            mean_total_cost=means["total_cost"],
            n_trials=n_trials,
        )
    aggregate = {
        field: summarise_values(
            [
                getattr(result, f"average_{field}_cost")
                for result in results
            ]
        )["mean"]
        for field in ("access", "adjustment", "total")
    }
    table.add_row(
        source="total",
        n_requests=results[0].n_requests if results else 0,
        mean_access_cost=aggregate["access"],
        mean_adjustment_cost=aggregate["adjustment"],
        mean_total_cost=aggregate["total"],
        n_trials=n_trials,
    )
    return StageResult(key=key, plan=plan, result=table, table=table)


def build_traffic_sweep_payloads(plan: TrafficSweepPlan) -> List[TrialPayload]:
    """Build the flat payload pool of a traffic sweep, in canonical order.

    Order is (point, algorithm, trial) — point-major so the table below can
    regroup by position.  Every payload of a trial ships the *same* re-seeded
    traffic (seeds derive from the trial index alone, exactly like
    :func:`build_network_payloads`), so all points and algorithms fan out
    through one :func:`~repro.sim.runner.execute_payloads` call and the
    comparison across algorithms is never confounded by traffic noise.
    """
    config = plan.config
    chunk = DEFAULT_CHUNK_SIZE if config.chunk_size is None else config.chunk_size
    payloads: List[TrialPayload] = []
    for point_index, point in enumerate(plan.point_dicts()):
        bound = plan.bound_traffic(point)
        for algorithm in plan.algorithms:
            for trial in range(config.n_trials):
                payloads.append(
                    TrialPayload(
                        algorithm=algorithm,
                        source=TrafficSource(
                            traffic=bound.with_seed(config.base_seed + trial),
                            requests_per_source=config.n_requests,
                            chunk_size=chunk,
                        ),
                        n_nodes=bound.n_nodes,
                        placement_seed=config.base_seed
                        + 10_000
                        + trial * NETWORK_TRIAL_SEED_STRIDE,
                        algorithm_seed=None,
                        keep_records=config.keep_records,
                        trial=trial,
                        metadata={"point": point_index},
                    )
                )
    return payloads


def _execute_traffic_sweep_plan(plan: TrafficSweepPlan, key: str = "") -> StageResult:
    payloads = build_traffic_sweep_payloads(plan)
    config = plan.config
    results = execute_payloads(
        payloads,
        config.n_jobs,
        worker_timeout=config.worker_timeout,
        retry=RetryPolicy.for_config(config),
        cache_dir=config.cache_dir,
        executor=config.executor,
    )
    points = plan.point_dicts()
    point_columns = sorted({key for point in points for key in point})
    # a point may legitimately bind a key named "n_sources"; the fixed
    # column then reports the same bound value, so the point key wins
    fixed_columns = [
        column
        for column in (
            "algorithm",
            "n_sources",
            "mean_access_cost",
            "mean_adjustment_cost",
            "mean_total_cost",
            "n_trials",
        )
        if column not in point_columns
    ]
    table = ResultTable(name=plan.name, columns=point_columns + fixed_columns)
    names = plan.algorithm_names()
    n_trials = config.n_trials
    cursor = 0
    for point in points:
        bound = plan.bound_traffic(point)
        for name in names:
            trials = results[cursor : cursor + n_trials]
            cursor += n_trials
            means = {
                field: summarise_values(
                    [getattr(result, f"average_{field}_cost") for result in trials]
                )["mean"]
                for field in ("access", "adjustment", "total")
            }
            row = {column: point.get(column) for column in point_columns}
            row.update(
                algorithm=name,
                n_sources=len(bound.sources),
                mean_access_cost=means["access"],
                mean_adjustment_cost=means["adjustment"],
                mean_total_cost=means["total"],
                n_trials=n_trials,
            )
            table.add_row(**{column: row[column] for column in table.columns})
    return StageResult(key=key, plan=plan, result=table, table=table)


@register_assembler("traffic_sweep")
def _assemble_traffic_sweep(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Merge traffic-sweep stage tables into one labelled comparison.

    The sweep twin of ``trace_costs``: every stage must be a
    :class:`~repro.plans.model.TrafficSweepPlan` and all stages must sweep
    the same point keys; the output carries one row per (stage, point,
    algorithm), labelled with the stage key.
    """
    if not stages:
        raise PlanError(
            f"assembler 'traffic_sweep' needs at least one traffic-sweep "
            f"stage, plan {plan.name!r} has none"
        )
    columns = None
    table = None
    for stage in stages:
        if not isinstance(stage.plan, TrafficSweepPlan) or stage.table is None:
            raise PlanError(
                f"assembler 'traffic_sweep' expects traffic-sweep stages, "
                f"stage {stage.key!r} of plan {plan.name!r} is "
                f"{type(stage.plan).__name__}"
            )
        if columns is None:
            columns = list(stage.table.columns)
            table = ResultTable(name=plan.name, columns=["scenario"] + columns)
        elif list(stage.table.columns) != columns:
            raise PlanError(
                f"assembler 'traffic_sweep': stage {stage.key!r} sweeps "
                f"columns {stage.table.columns}, expected {columns}"
            )
        for row in stage.table.rows:
            table.add_row(scenario=stage.key, **row)
    return table


def _execute_experiment_plan(plan: ExperimentPlan, key: str = "") -> StageResult:
    stages = [_execute(sub, stage_key) for stage_key, sub in plan.stages]
    result = _assembler(plan.assembler)(plan, stages)
    table = result if isinstance(result, ResultTable) else None
    return StageResult(key=key, plan=plan, result=result, table=table)


def _execute(plan: Plan, key: str = "") -> StageResult:
    if isinstance(plan, TrialPlan):
        return _execute_trial_plan(plan, key)
    if isinstance(plan, SweepPlan):
        return _execute_sweep_plan(plan, key)
    if isinstance(plan, NetworkPlan):
        return _execute_network_plan(plan, key)
    if isinstance(plan, TrafficSweepPlan):
        return _execute_traffic_sweep_plan(plan, key)
    if isinstance(plan, ExperimentPlan):
        return _execute_experiment_plan(plan, key)
    raise PlanError(f"not a plan object: {plan!r}")


#: Stats of the most recent :func:`run` call in this process (see
#: :func:`last_run_stats`).
_last_stats: Optional[ResilienceStats] = None


def last_run_stats() -> Optional[ResilienceStats]:
    """Return the resilience counters of the most recent :func:`run` call.

    ``None`` until the first plan run of the process.  The counters —
    payloads executed, cache hits, checkpoint writes, retries, pool rebuilds,
    degradation — are what resume tests and campaign logs introspect:
    "re-running with ``resume=True`` executed only the missing trials" is an
    assertion on ``last_run_stats().executed``.
    """
    return _last_stats


def _plan_uses_cache(plan: Plan) -> bool:
    """True when any stage config of ``plan`` names a ``cache_dir``."""
    if isinstance(plan, (TrialPlan, SweepPlan, NetworkPlan, TrafficSweepPlan)):
        return plan.config.cache_dir is not None
    if plan.config is not None and plan.config.cache_dir is not None:
        return True
    return any(_plan_uses_cache(sub) for _key, sub in plan.stages)


def run(
    plan: Plan,
    *,
    cache: Optional[Union[ResultStore, str, Path]] = None,
    resume: bool = False,
    executor: Optional[str] = None,
) -> object:
    """Execute ``plan`` and return its result.

    The one public entrypoint of the declarative layer (``repro.run``):

    * a :class:`TrialPlan` returns a :class:`~repro.sim.results.ResultTable`
      with one row per algorithm (mean per-request costs over the trials);
    * a :class:`SweepPlan` returns the sweep's table (one row per point ×
      algorithm), exactly as :class:`~repro.sim.sweep.ParameterSweep` built
      it;
    * a :class:`NetworkPlan` returns a per-source route-cost table (one row
      per source plus a ``"total"`` aggregate row, per-request means over
      the trials), streamed through spec-shipped multi-source payloads;
    * a :class:`TrafficSweepPlan` returns a table with one row per point ×
      algorithm (aggregate per-request means over the trials), every point's
      traffic bound from the template at payload-build time;
    * an :class:`ExperimentPlan` returns whatever its assembler produces —
      a table, a ``{stage key: result}`` dict (q1/q4/q5), or the Q4
      ``(histogram, summary)`` pair.

    ``cache`` attaches a checkpoint store to the whole run — a
    :class:`~repro.resilience.ResultStore` or a directory path — overriding
    any per-stage ``config.cache_dir``; when a store is active every
    completed trial is persisted as it finishes (crash-safe, atomic).  With
    ``resume=True``, trials whose verified entry already exists are served
    from the store instead of re-executed; results are bit-identical either
    way because every trial is a pure function of its payload content.
    Corrupted or truncated entries are detected, logged and re-run — never
    fatal.  :func:`last_run_stats` exposes the counters afterwards.

    ``executor`` dispatches every stage's payloads to a remote worker fleet
    (``"tcp://host:port[,host:port...]"``; see :mod:`repro.dist`) instead of
    the local process pool, overriding any per-stage ``config.executor``.
    Results are byte-identical to local execution — the fleet degrades to
    the local pool, then to in-process serial, if workers are lost.
    """
    global _last_stats
    if executor is not None:
        plan = plan_with_overrides(plan, executor=executor)
    store: Optional[ResultStore] = None
    if cache is not None:
        store = cache if isinstance(cache, ResultStore) else ResultStore(cache)
    if resume and store is None and not _plan_uses_cache(plan):
        raise PlanError(
            "resume=True needs a checkpoint store: pass cache=... or set "
            "cache_dir on the plan's RunConfig"
        )
    context = ExecutionContext(store=store, resume=resume)
    with activate_context(context):
        result = _execute(plan).result
    _last_stats = context.stats
    return result
