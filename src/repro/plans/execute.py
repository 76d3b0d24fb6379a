"""Plan execution: compile every plan, fan out once, reduce.

:func:`run` is the public face (re-exported as ``repro.run``): it takes any
plan object — :class:`~repro.plans.model.TrialPlan`,
:class:`~repro.plans.model.SweepPlan`,
:class:`~repro.plans.model.NetworkPlan`,
:class:`~repro.plans.model.TrafficSweepPlan` or
:class:`~repro.plans.model.ExperimentPlan` — and does three things:

1. **compile** (:func:`compile_plan`): the whole plan tree becomes one list
   of :class:`~repro.sim.runner.TrialPayload` work items in canonical order
   plus a pure reducer over the ordered results.  A trial plan compiles as
   a one-point sweep; network plans share the traffic-sweep payload
   builder; an experiment concatenates its stages' payloads (and, for the
   assembler-only experiments registered with
   :func:`register_payload_assembler`, its own);
2. **fan out** (:func:`fan_out`): one
   :func:`~repro.sim.runner.execute_payloads` call with the run's knobs
   (``n_jobs``, ``worker_timeout``, ``max_retries``, ``cache_dir``,
   ``executor``).  Every config of one plan tree must agree on these knobs —
   compile rejects a tree whose stages disagree;
3. **reduce**: the reducer slices the results back into per-stage tables
   and hands them to the experiment's *assembler*.

Assemblers are registered functions turning executed stages into the
experiment's output (the generic ``"table"``/``"tables"`` assemblers live
here; the figure-specific ones are registered by the :mod:`repro.experiments`
modules at import time and resolved lazily, mirroring the workload-kind
registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.algorithms.base import RunResult
from repro.algorithms.registry import AlgorithmSpec
from repro.exceptions import PlanError
from repro.network.traffic import TrafficSpec
from repro.plans.model import (
    ExperimentPlan,
    NetworkPlan,
    Plan,
    RunConfig,
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
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec

__all__ = [
    "Compiled",
    "StageResult",
    "compile_plan",
    "fan_out",
    "last_run_stats",
    "register_assembler",
    "register_payload_assembler",
    "registered_assemblers",
    "run",
]

#: Columns of a sweep table after its point columns (a bare
#: :class:`TrialPlan`'s table has exactly these).
SWEEP_TABLE_COLUMNS = [
    "algorithm",
    "mean_access_cost",
    "mean_adjustment_cost",
    "mean_total_cost",
    "n_trials",
]

#: :class:`RunConfig` fields the one fan-out of a run applies to every
#: payload; all configs of one plan tree must agree on them.
FANOUT_KNOBS = ("n_jobs", "worker_timeout", "max_retries", "cache_dir", "executor")

#: Trial stride of the network base seed shipped in network payloads.
#: :func:`~repro.network.multi_source.source_tree` derives per-source
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


class Compiled(NamedTuple):
    """A compiled plan: its payloads in canonical order plus their reducer.

    ``reduce`` maps the results of exactly these payloads, in the same
    order, to the plan's :class:`StageResult`; it is pure, so cached and
    fresh results reduce to the same output.
    """

    payloads: List[TrialPayload]
    reduce: Callable[[Sequence[RunResult]], StageResult]


#: Registered experiment assemblers: name -> (fn, builds_payloads).  Plain
#: assemblers are ``fn(plan, stages) -> result``; payload assemblers are
#: ``fn(plan) -> (payloads, reduce)`` with ``reduce(results) -> result``.
_ASSEMBLERS: Dict[str, Tuple[Callable, bool]] = {}


def _registrar(name: str, builds_payloads: bool):
    def decorate(fn):
        _ASSEMBLERS[name] = (fn, builds_payloads)
        return fn

    return decorate


def register_assembler(name: str):
    """Decorator registering an experiment assembler under ``name``.

    The assembler is called as ``fn(plan, stages)`` with the executed
    stages' :class:`StageResult` list and returns the experiment's output.
    """
    return _registrar(name, builds_payloads=False)


def register_payload_assembler(name: str):
    """Decorator registering an assembler-only experiment's compile step.

    For experiments whose payload structure is bespoke (paired payloads,
    adaptive adversaries, corpus traces): ``fn(plan)`` returns the payloads
    built from the plan's ``params`` and ``config`` plus a pure
    ``reduce(results)`` producing the experiment's output.  The payloads
    join the run's single fan-out like any stage's.
    """
    return _registrar(name, builds_payloads=True)


def registered_assemblers() -> List[str]:
    """Return the sorted names of all registered assemblers."""
    _ensure_experiment_assemblers()
    return sorted(_ASSEMBLERS)


def _ensure_experiment_assemblers() -> None:
    """Import the experiment package once so its assemblers are registered."""
    import repro.experiments  # noqa: F401  (imports register the assemblers)


def _assembler(name: str) -> Tuple[Callable, bool]:
    entry = _ASSEMBLERS.get(name)
    if entry is None:
        _ensure_experiment_assemblers()
        entry = _ASSEMBLERS.get(name)
    if entry is None:
        raise PlanError(
            f"unknown assembler {name!r}; registered assemblers: "
            f"{sorted(_ASSEMBLERS)}"
        )
    return entry


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


def _sweep_parts(plan: SweepPlan) -> Tuple[List[TrialPayload], Callable]:
    """Payloads of a sweep plus a reducer to its table and per-point outcomes.

    Payload order is (point, trial, algorithm); each point's payloads are
    exactly what :meth:`TrialRunner.build_payloads` builds for the point's
    bound workload template, so every seed derives from the trial index.
    """
    template = plan.workload
    bind = plan.bind_dict()
    points = plan.point_dicts()
    chunks: List[List[TrialPayload]] = []
    for point in points:
        n_nodes = int(point.get("n_nodes", plan.n_nodes or 0))
        if n_nodes <= 0:
            raise PlanError(
                f"{plan._owner}: point {point} has no tree size and the plan "
                "sets no n_nodes"
            )
        bound_params = {
            bind[point_key]: value for point_key, value in point.items() if point_key in bind
        }
        # an unbound point reuses the template: re-freezing its params would
        # copy embedded data such as a fixed sequence
        bound = (
            WorkloadSpec.create(template.kind, **{**template.param_dict(), **bound_params})
            if bound_params
            else template
        )
        runner = TrialRunner(n_nodes, plan.config)
        chunks.append(
            runner.build_payloads(plan.algorithms, runner.trial_sources(bound.with_seed))
        )
    point_columns: List[str] = []
    for point in points:
        point_columns.extend(key for key in point if key not in point_columns)
    names = plan.algorithm_names()

    def reduce(results):
        table = ResultTable(name=plan.name, columns=point_columns + SWEEP_TABLE_COLUMNS)
        per_point = []
        cursor = 0
        for point, payloads in zip(points, chunks):
            outcomes = TrialRunner.collect(
                names, payloads, results[cursor : cursor + len(payloads)]
            )
            cursor += len(payloads)
            per_point.append(outcomes)
            aggregated = TrialRunner.aggregate(outcomes)
            for name in names:
                summary = aggregated[name]
                table.add_row(
                    **{column: point.get(column) for column in point_columns},
                    algorithm=name,
                    mean_access_cost=summary.mean_access_cost,
                    mean_adjustment_cost=summary.mean_adjustment_cost,
                    mean_total_cost=summary.mean_total_cost,
                    n_trials=summary.n_trials,
                )
        return table, per_point

    return [payload for chunk in chunks for payload in chunk], reduce


def _compile_sweep(plan: SweepPlan, key: str) -> Compiled:
    payloads, reduce_points = _sweep_parts(plan)

    def reduce(results):
        table, _per_point = reduce_points(results)
        return StageResult(key=key, plan=plan, result=table, table=table)

    return Compiled(payloads, reduce)


def _compile_trial(plan: TrialPlan, key: str) -> Compiled:
    """Compile a trial plan as the one-point sweep it is."""
    payloads, reduce_points = _sweep_parts(
        SweepPlan(
            workload=plan.workload,
            algorithms=plan.algorithms,
            points=({},),
            n_nodes=plan.n_nodes,
            config=plan.config,
            name=plan.name,
        )
    )

    def reduce(results):
        table, (outcomes,) = reduce_points(results)
        return StageResult(
            key=key,
            plan=plan,
            result=table,
            table=table,
            aggregated=TrialRunner.aggregate(outcomes),
            outcomes=outcomes,
        )

    return Compiled(payloads, reduce)


def _traffic_payloads(
    traffic: TrafficSpec,
    algorithm: AlgorithmSpec,
    config: RunConfig,
    metadata: Optional[Dict[str, object]] = None,
) -> List[TrialPayload]:
    """Build one spec-only payload per trial of one traffic template.

    Trial ``i`` ships the template re-seeded with ``base_seed + i`` (stamping
    the interleaving and every per-source workload seed, see
    :meth:`~repro.network.traffic.TrafficSpec.with_seed`) and the network
    base seed ``base_seed + 10_000 + i * NETWORK_TRIAL_SEED_STRIDE`` in the
    payload's ``placement_seed`` slot — a trial-index-only derivation like
    the single-source runners', with the stride keeping the per-source seed
    windows of different trials disjoint.  Payloads are therefore
    independent of where and in which order they execute, and nothing is
    generated here: the parent process never holds a trace.
    """
    chunk = DEFAULT_CHUNK_SIZE if config.chunk_size is None else config.chunk_size
    return [
        TrialPayload(
            algorithm=algorithm,
            source=TrafficSource(
                traffic=traffic.with_seed(config.base_seed + trial),
                requests_per_source=config.n_requests,
                chunk_size=chunk,
            ),
            n_nodes=traffic.n_nodes,
            placement_seed=config.base_seed + 10_000 + trial * NETWORK_TRIAL_SEED_STRIDE,
            algorithm_seed=None,
            keep_records=config.keep_records,
            trial=trial,
            metadata=dict(metadata or {}),
        )
        for trial in range(config.n_trials)
    ]


def build_network_payloads(plan: NetworkPlan) -> List[TrialPayload]:
    """Build one spec-only payload per trial of a network plan."""
    return _traffic_payloads(plan.traffic, plan.algorithm, plan.config)


def build_traffic_sweep_payloads(plan: TrafficSweepPlan) -> List[TrialPayload]:
    """Build the flat payload pool of a traffic sweep, in canonical order.

    Order is (point, algorithm, trial) — point-major so the reducer can
    regroup by position.  Every payload of a trial ships the *same*
    re-seeded traffic, so the comparison across algorithms is never
    confounded by traffic noise.
    """
    return [
        payload
        for point_index, point in enumerate(plan.point_dicts())
        for algorithm in plan.algorithms
        for payload in _traffic_payloads(
            plan.bound_traffic(point), algorithm, plan.config, {"point": point_index}
        )
    ]


def _mean_costs(results: Sequence[RunResult]) -> Dict[str, float]:
    """Mean per-request access/adjustment/total cost over trial results."""
    return {
        field: summarise_values(
            [getattr(result, f"average_{field}_cost") for result in results]
        )["mean"]
        for field in ("access", "adjustment", "total")
    }


def _compile_network(plan: NetworkPlan, key: str) -> Compiled:
    def reduce(results):
        table = ResultTable(name=plan.name, columns=list(NETWORK_TABLE_COLUMNS))
        n_trials = len(results)
        per_trial_columns = [result.metadata["per_source"] for result in results]
        sources = per_trial_columns[0]["source"] if per_trial_columns else []
        for index, source in enumerate(sources):
            means = {
                column: summarise_values(
                    [
                        trial_columns[column][index]
                        / max(1, trial_columns["n_requests"][index])
                        for trial_columns in per_trial_columns
                    ]
                )["mean"]
                for column in ("total_access_cost", "total_adjustment_cost", "total_cost")
            }
            table.add_row(
                source=int(source),
                n_requests=int(per_trial_columns[0]["n_requests"][index]),
                mean_access_cost=means["total_access_cost"],
                mean_adjustment_cost=means["total_adjustment_cost"],
                mean_total_cost=means["total_cost"],
                n_trials=n_trials,
            )
        aggregate = _mean_costs(results)
        table.add_row(
            source="total",
            n_requests=results[0].n_requests if results else 0,
            mean_access_cost=aggregate["access"],
            mean_adjustment_cost=aggregate["adjustment"],
            mean_total_cost=aggregate["total"],
            n_trials=n_trials,
        )
        return StageResult(key=key, plan=plan, result=table, table=table)

    return Compiled(build_network_payloads(plan), reduce)


def _compile_traffic_sweep(plan: TrafficSweepPlan, key: str) -> Compiled:
    points = plan.point_dicts()
    point_columns = sorted({key for point in points for key in point})
    # a point may legitimately bind a key named "n_sources"; the fixed
    # column then reports the same bound value, so the point key wins
    fixed_columns = [
        column
        for column in ["algorithm", "n_sources"] + SWEEP_TABLE_COLUMNS[1:]
        if column not in point_columns
    ]
    names = plan.algorithm_names()
    n_trials = plan.config.n_trials

    def reduce(results):
        table = ResultTable(name=plan.name, columns=point_columns + fixed_columns)
        cursor = 0
        for point in points:
            n_sources = len(plan.bound_traffic(point).sources)
            for name in names:
                means = _mean_costs(results[cursor : cursor + n_trials])
                cursor += n_trials
                row = {column: point.get(column) for column in point_columns}
                row.update(
                    algorithm=name,
                    n_sources=n_sources,
                    mean_access_cost=means["access"],
                    mean_adjustment_cost=means["adjustment"],
                    mean_total_cost=means["total"],
                    n_trials=n_trials,
                )
                table.add_row(**{column: row[column] for column in table.columns})
        return StageResult(key=key, plan=plan, result=table, table=table)

    return Compiled(build_traffic_sweep_payloads(plan), reduce)


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


def _stage_result(key: str, plan: Plan, result: object) -> StageResult:
    table = result if isinstance(result, ResultTable) else None
    return StageResult(key=key, plan=plan, result=result, table=table)


def _compile_experiment(plan: ExperimentPlan, key: str) -> Compiled:
    fn, builds_payloads = _assembler(plan.assembler)
    if builds_payloads:
        if plan.stages:
            raise PlanError(
                f"assembler {plan.assembler!r} is assembler-only, plan "
                f"{plan.name!r} has stages"
            )
        if plan.config is None:
            raise PlanError(
                f"assembler {plan.assembler!r} needs the config of plan {plan.name!r}"
            )
        payloads, reduce_own = fn(plan)
        return Compiled(
            list(payloads), lambda results: _stage_result(key, plan, reduce_own(results))
        )
    parts = [_compile(sub, stage_key) for stage_key, sub in plan.stages]

    def reduce(results):
        stages = []
        cursor = 0
        for part in parts:
            stages.append(part.reduce(results[cursor : cursor + len(part.payloads)]))
            cursor += len(part.payloads)
        return _stage_result(key, plan, fn(plan, stages))

    return Compiled([payload for part in parts for payload in part.payloads], reduce)


def _compile(plan: Plan, key: str) -> Compiled:
    if isinstance(plan, TrialPlan):
        return _compile_trial(plan, key)
    if isinstance(plan, SweepPlan):
        return _compile_sweep(plan, key)
    if isinstance(plan, NetworkPlan):
        return _compile_network(plan, key)
    if isinstance(plan, TrafficSweepPlan):
        return _compile_traffic_sweep(plan, key)
    if isinstance(plan, ExperimentPlan):
        return _compile_experiment(plan, key)
    raise PlanError(f"not a plan object: {plan!r}")


def _configs(plan: Plan, where: str) -> Iterator[Tuple[str, RunConfig]]:
    """Yield ``(stage path, config)`` for every config in the plan tree."""
    if plan.config is not None:
        yield where, plan.config
    for stage_key, sub in getattr(plan, "stages", ()):
        yield from _configs(sub, f"{where}/{stage_key}")


def _fanout_config(plan: Plan) -> RunConfig:
    """Return the config whose :data:`FANOUT_KNOBS` drive ``plan``'s fan-out.

    A run fans out once, so every config of the tree must agree on those
    knobs; the first disagreement raises :class:`PlanError` naming both
    stages.  A tree without configs runs with :class:`RunConfig` defaults.
    """
    reference: Optional[Tuple[str, RunConfig]] = None
    for where, config in _configs(plan, plan.name):
        if reference is None:
            reference = (where, config)
            continue
        for knob in FANOUT_KNOBS:
            ours, theirs = getattr(reference[1], knob), getattr(config, knob)
            if ours != theirs:
                raise PlanError(
                    f"stages {reference[0]!r} and {where!r} disagree on {knob} "
                    f"({ours!r} vs {theirs!r}); a run fans out once, so every "
                    f"config of a plan must agree on {', '.join(FANOUT_KNOBS)}"
                )
    return reference[1] if reference is not None else RunConfig()


def compile_plan(plan: Plan) -> Compiled:
    """Compile ``plan`` into its payloads (canonical order) and reducer.

    Raises :class:`PlanError` when the configs of the tree disagree on a
    fan-out knob (see :func:`_fanout_config`).
    """
    _fanout_config(plan)
    return _compile(plan, "")


def fan_out(payloads: Sequence[TrialPayload], config: RunConfig) -> List[RunResult]:
    """Execute ``payloads`` once with ``config``'s fan-out knobs, in order."""
    if not payloads:
        # pure-analysis plans (q5 complexity map, table1) must not reach
        # for a pool or a remote fleet
        return []
    return execute_payloads(
        payloads,
        config.n_jobs,
        worker_timeout=config.worker_timeout,
        retry=RetryPolicy.for_config(config),
        cache_dir=config.cache_dir,
        executor=config.executor,
    )


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


def run(
    plan: Plan,
    *,
    cache: Optional[Union[ResultStore, str, Path]] = None,
    resume: bool = False,
    executor: Optional[str] = None,
) -> object:
    """Execute ``plan`` and return its result.

    The one public entrypoint of the declarative layer (``repro.run``):
    compile the plan tree, fan its payloads out once, reduce.

    * a :class:`TrialPlan` returns a :class:`~repro.sim.results.ResultTable`
      with one row per algorithm (mean per-request costs over the trials);
    * a :class:`SweepPlan` returns the sweep's table (one row per point ×
      algorithm, the point columns first);
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
    the plan's ``config.cache_dir``; when a store is active every completed
    trial is persisted as it finishes (crash-safe, self-verifying).  With
    ``resume=True``, trials whose verified entry already exists are served
    from the store instead of re-executed; results are bit-identical either
    way because every trial is a pure function of its payload content.
    Corrupted or truncated entries are detected, logged and re-run — never
    fatal.  :func:`last_run_stats` exposes the counters afterwards.

    ``executor`` dispatches the payloads to a remote worker fleet
    (``"tcp://host:port[,host:port...]"``; see :mod:`repro.dist`) instead of
    the local process pool, overriding the plan's ``config.executor``.
    Results are byte-identical to local execution — the fleet degrades to
    the local pool, then to in-process serial, if workers are lost.
    """
    global _last_stats
    if executor is not None:
        plan = plan_with_overrides(plan, executor=executor)
    config = _fanout_config(plan)
    compiled = _compile(plan, "")
    store: Optional[ResultStore] = None
    if cache is not None:
        store = cache if isinstance(cache, ResultStore) else ResultStore(cache)
    if resume and store is None and config.cache_dir is None:
        raise PlanError(
            "resume=True needs a checkpoint store: pass cache=... or set "
            "cache_dir on the plan's RunConfig"
        )
    context = ExecutionContext(store=store, resume=resume)
    with activate_context(context):
        result = compiled.reduce(fan_out(compiled.payloads, config)).result
    _last_stats = context.stats
    return result
