"""Trial payloads, their worker bodies and the per-algorithm reduction.

Every experiment runs through :func:`repro.run`: a plan compiles to
:class:`TrialPayload` work items (see :mod:`repro.plans.execute`), one
:func:`execute_payloads` call fans them out, and :class:`TrialRunner`'s
:meth:`~TrialRunner.collect`/:meth:`~TrialRunner.aggregate` reduce the
ordered results to per-algorithm averages over the trials (the paper repeats
every synthetic experiment ten times and plots averages).

A payload's workload half is a :class:`WorkloadSource`, always a spec:

* :class:`SpecSource` — an immutable :class:`repro.workloads.spec.WorkloadSpec`
  plus a request count; the worker rebuilds the generator and *streams*
  requests into the serve path in chunks of
  :data:`~repro.workloads.spec.DEFAULT_CHUNK_SIZE` (a constant: no result
  depends on where a stream is cut).  Nothing is generated in the
  parent process and the payload pickles in bytes, not megabytes.  Corpus
  traces ship as ``corpus`` recipe specs and recorded sequences as
  ``fixed-sequence`` specs.  A trial without records of a paper algorithm
  with ``int`` seeds builds no tree: it is one seeded kernel call (see
  :func:`repro.sim.engine.simulate_stream`), with the result the tree path
  returns.
* :class:`TrafficSource` — a multi-source traffic spec, served source by
  source in the worker.
* :class:`AdversarySource` — an :class:`repro.workloads.adversarial.
  AdversarySpec` plus a request count; the worker builds the *adaptive*
  adversary (which must observe the algorithm's tree, so it cannot be a
  plain workload spec), lets it drive its own algorithm instance and
  returns the costs it extracted.  This is how the paper's Lemma 8 and
  lower-bound constructions run under plans with fan-out and caching.

:func:`execute_payloads` fans the independent (trial, algorithm) work items
out over a persistent process pool (see :mod:`repro.sim.parallel`) or a
remote worker fleet.  Per-trial seeds are derived from the trial index
alone, spec seeds are therefore pure functions of the trial index, and
results are reassembled in payload order, so ``n_jobs > 1`` — and streaming
versus materialising — produce bit-for-bit the same outcomes as a serial run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.algorithms.base import RunResult
from repro.algorithms.registry import AlgorithmSpec
from repro.core.cost import RequestRecordColumns
from repro.exceptions import ExperimentError
from repro.network.multi_source import serve_source_by_source
from repro.network.traffic import TrafficSpec
from repro.resilience.context import current_context
from repro.resilience.faults import FaultSpec, fault_spec_from_env, maybe_inject
from repro.resilience.retry import RetryPolicy
from repro.resilience.store import payload_key
from repro.sim.engine import simulate_stream
from repro.sim.parallel import _count as _count_stat, in_pool_worker, map_ordered
from repro.sim.results import summarise_values
from repro.telemetry.registry import default_registry
from repro.telemetry.trace import default_tracer, span_id
from repro.workloads.adversarial import AdversarySpec
from repro.workloads.spec import WorkloadSpec, build_workload

if TYPE_CHECKING:  # the plan layer imports this module, never the reverse
    from repro.plans.model import RunConfig

__all__ = [
    "AdversarySource",
    "SpecSource",
    "TrafficSource",
    "TrialOutcome",
    "AggregatedOutcome",
    "TrialPayload",
    "TrialRunner",
    "execute_payloads",
]

#: Signature of a factory producing the workload spec of the trial seeded
#: ``seed`` (a plan's bound template's ``with_seed``).
SpecFactory = Callable[[int], WorkloadSpec]


@dataclass(frozen=True)
class SpecSource:
    """A workload spec to rebuild and stream inside the worker.

    ``shared`` marks sources that appear in several payloads (one per
    algorithm of the same trial): workers then memoise the generated chunks
    in a single-entry cache, so the stream is generated once per trial per
    worker instead of once per payload — the worker-side memory cost (one
    resident sequence) is exactly what the materialised pipeline paid.
    Unshared sources stream without retaining anything.
    """

    spec: WorkloadSpec
    n_requests: int
    shared: bool = False


@dataclass(frozen=True)
class TrafficSource:
    """A multi-source traffic spec to rebuild and stream inside the worker.

    The network variant of :class:`SpecSource`: the payload carries a
    :class:`repro.network.traffic.TrafficSpec` (per-source workload specs +
    interleaving policy, already trial-seeded) and the per-source request
    count; the worker serves it source by source with
    :func:`repro.network.multi_source.serve_source_by_source` (one kernel
    call per source for a kernel algorithm, a source tree otherwise) and
    returns columnar per-source totals — the parent process never
    materialises a single trace request.  The payload's ``placement_seed``
    doubles as the network's ``base_seed``: each source's placement and
    algorithm seeds are derived from it and the source id alone, as
    :func:`repro.network.multi_source.source_tree` derives them.
    """

    traffic: TrafficSpec
    requests_per_source: int


@dataclass(frozen=True)
class AdversarySource:
    """An adaptive-adversary spec to build and run inside the worker.

    Adaptive adversaries construct their request sequences *online* from the
    state of the algorithm's own tree, so — unlike every other source — the
    payload's algorithm half is decided by the adversary itself (the spec's
    construction pins which algorithm it attacks).  The payload's
    ``algorithm`` field is ignored; its seeds are ignored too, because the
    constructions are deterministic.  What the worker returns is the cost
    record the adversary extracted, shaped as a normal
    :class:`~repro.algorithms.base.RunResult` so stores, tables and caches
    need no special cases.
    """

    adversary: AdversarySpec
    n_requests: int


WorkloadSource = Union[SpecSource, TrafficSource, AdversarySource]


@dataclass(frozen=True)
class TrialPayload:
    """One (trial, algorithm) work item, picklable and order-independent.

    Payloads carry *specs only*: the algorithm half is an
    :class:`~repro.algorithms.registry.AlgorithmSpec` (bare registry names
    are coerced on construction) and the workload half a
    :class:`WorkloadSource`.  Payloads are
    order- and placement-independent: where and in which order they run
    never changes a result.

    ``fault`` is the test-only fault-injection hook (see
    :mod:`repro.resilience.faults`): when set, the worker body fires the
    fault *before* serving any request, so a recovered re-run of the payload
    starts from its pristine seeded state and is byte-identical to a
    fault-free run.  The field never affects result content and is excluded
    from the payload's cache key.
    """

    algorithm: AlgorithmSpec
    source: WorkloadSource
    n_nodes: int
    placement_seed: Optional[int]
    algorithm_seed: Optional[int]
    keep_records: bool
    trial: int
    metadata: Dict[str, object] = field(default_factory=dict)
    fault: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, AlgorithmSpec):
            object.__setattr__(
                self, "algorithm", AlgorithmSpec.coerce(self.algorithm)
            )

    @property
    def algorithm_name(self) -> str:
        """Registry name of the planned algorithm."""
        return self.algorithm.name


#: Single-entry per-process memo for ``shared`` spec sources (see
#: :class:`SpecSource`).  Keyed by the source; cleared whenever a
#: different shared source arrives, so at most one sequence is resident.
#: :func:`execute_payloads` clears it when a pass completes; idle pool
#: workers hold at most one trial's sequence until their next pass (or
#: :func:`repro.sim.parallel.shutdown_persistent_pool`).
_shared_chunks_cache: Dict[object, List] = {}


def execute_payloads(
    payloads: Sequence["TrialPayload"],
    n_jobs: Optional[int],
    *,
    worker_timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    cache_dir: Optional[str] = None,
    executor: Optional[str] = None,
) -> List[RunResult]:
    """Execute payloads (serially or on the pool), releasing the stream memo.

    The one fan-out of :func:`repro.run` around :func:`map_ordered` — and
    the seam where the resilience layer plugs in.  When a plan run has activated
    an :class:`repro.resilience.ExecutionContext` (via ``repro.run(...,
    cache=...)`` or a ``cache_dir`` in the stage config):

    * every completed payload is persisted to the checkpoint store *as it
      completes* (``on_result``), so an interrupted campaign keeps what it
      already computed;
    * with ``resume=True``, payloads whose verified entry already exists are
      served from the store and never re-executed — corrupt or truncated
      entries are logged, counted and simply re-run.

    Results are pure functions of payload content (seeds derive from the
    trial index alone), so mixing cached and fresh results is bit-identical
    to computing everything; reassembly stays strictly in payload order.
    Without an active context (a direct call outside a plan run) there is no
    store and no resume: plain fan-out, and a ``cache_dir`` raises
    :class:`~repro.exceptions.ExperimentError` instead of being ignored.

    With an ``executor`` address (``tcp://host:port[,host:port...]``) the
    remote worker fleet is the first rung of :func:`map_ordered`'s ladder
    (fleet -> local pool -> serial), so results and persistence behave
    identically wherever a payload runs.
    """
    context = current_context()
    if context is None and cache_dir:
        raise ExperimentError(
            f"execute_payloads(cache_dir={cache_dir!r}) outside a plan run would "
            "store nothing: pass the cache through repro.run(plan, cache=...) or "
            "the plan's RunConfig(cache_dir=...)"
        )
    store = context.store_for(cache_dir) if context is not None else None
    stats = context.stats if context is not None else None
    registry = default_registry()
    tracer = default_tracer()
    observe_turnaround = registry.histogram(
        "repro_payload_turnaround_seconds",
        "Fan-out start to payload completion, parent-side.",
    ).bind()
    results: List[Optional[RunResult]] = [None] * len(payloads)
    pending: List[int] = []
    keys: Dict[int, str] = {}
    if store is not None:
        keys = {index: payload_key(payload) for index, payload in enumerate(payloads)}
    if store is not None and context.resume:
        for index in range(len(payloads)):
            key = keys[index]
            present = key in store
            cached = store.get(key) if present else None
            if cached is not None:
                results[index] = cached
                _count_stat(stats, "cache_hits")
            else:
                if present:
                    _count_stat(stats, "corrupt_entries")
                pending.append(index)
    else:
        pending = list(range(len(payloads)))
    if store is not None:
        registry.counter(
            "repro_run_cache_misses_total",
            "Payloads not servable from the checkpoint store.",
        ).inc(len(pending))
    fanout_started = time.perf_counter()
    fanout_wall = time.time()

    def observe(position: int, result: RunResult) -> None:
        turnaround = time.perf_counter() - fanout_started
        observe_turnaround(turnaround)
        index = pending[position]
        payload = payloads[index]
        sid = (
            span_id("payload", keys[index])
            if keys
            else span_id("run", payload.trial, payload.algorithm_name, index)
        )
        tracer.record(
            "run.payload",
            sid,
            start=fanout_wall,
            duration=turnaround,
            trial=payload.trial,
            algorithm=payload.algorithm_name,
        )
        if store is not None:
            store.put(keys[index], result)
            _count_stat(stats, "stored")

    m_trial = _trial_seconds()
    observe_trial = {
        name: m_trial.bind(algorithm=name)
        for name in {payloads[index].algorithm_name for index in pending}
    }

    def observe_seconds(position: int, seconds: float) -> None:
        observe_trial[payloads[pending[position]].algorithm_name](seconds)

    fleet = None
    if executor is not None:
        # Imported lazily: repro.dist imports this module for the payload
        # codecs, so a top-level import would cycle.
        from repro.dist.coordinator import DistributedExecutor
        from repro.dist.protocol import ExecutorSpec

        fleet = DistributedExecutor(ExecutorSpec.parse(executor))
    try:
        fresh = map_ordered(
            _execute_trial,
            [payloads[index] for index in pending],
            n_jobs,
            worker_timeout=worker_timeout,
            retry=retry,
            on_result=observe,
            on_seconds=observe_seconds,
            stats=stats,
            fleet=fleet,
        )
    finally:
        _shared_chunks_cache.clear()
    for position, index in enumerate(pending):
        results[index] = fresh[position]
    return results  # type: ignore[return-value]


def _chunks_of(source: SpecSource):
    """Return the request chunks of ``source``, memoising shared sources."""
    if not source.shared:
        workload = build_workload(source.spec)
        return workload.iter_requests(source.n_requests)
    chunks = _shared_chunks_cache.get(source)
    if chunks is None:
        workload = build_workload(source.spec)
        chunks = list(workload.iter_requests(source.n_requests))
        _shared_chunks_cache.clear()
        _shared_chunks_cache[source] = chunks
    return chunks


def _trial_seconds():
    return default_registry().histogram(
        "repro_trial_seconds",
        "Wall time of one trial execution, in the executing process.",
        labels=("algorithm",),
    )


def _execute_trial(payload: TrialPayload) -> RunResult:
    """Process-pool worker: run one algorithm on one trial workload.

    Module-level so it is picklable.  Observes the trial's wall time into
    the *executing* process's registry — this one on the serial path, the
    dist worker daemon's (where it is scrapeable via its metrics endpoint)
    — then delegates to :func:`_execute_trial_body`.  Pool workers skip the
    observation: the parent makes it from the seconds each batch returns
    (see :func:`execute_payloads`).
    """
    started = time.perf_counter()
    try:
        return _execute_trial_body(payload)
    finally:
        if not in_pool_worker():
            _trial_seconds().observe(
                time.perf_counter() - started, algorithm=payload.algorithm_name
            )


def _execute_trial_body(payload: TrialPayload) -> RunResult:
    """The actual trial body behind :func:`_execute_trial`.

    Spec sources are rebuilt and streamed chunk by chunk into
    :func:`simulate_stream`: lists, or the ``array('q')`` chunks the kernel
    drew.  A trial of a paper algorithm with ``int`` seeds builds no tree
    there: it is one seeded kernel call, which reads such chunks where they
    lie (see :func:`simulate_stream`).
    """
    maybe_inject(payload.fault, payload.trial, payload.algorithm_name)
    metadata: Dict[str, object] = {"trial": payload.trial, **payload.metadata}
    source = payload.source
    if isinstance(source, TrafficSource):
        return _execute_network_trial(payload, source, metadata)
    if isinstance(source, AdversarySource):
        return _execute_adversary_trial(payload, source, metadata)
    return simulate_stream(
        payload.algorithm,
        _chunks_of(source),
        n_nodes=payload.n_nodes,
        placement_seed=payload.placement_seed,
        seed=payload.algorithm_seed,
        keep_records=payload.keep_records,
        metadata=metadata,
    )


def _execute_network_trial(
    payload: TrialPayload, source: TrafficSource, metadata: Dict[str, object]
) -> RunResult:
    """Process-pool worker body for one multi-source network trial.

    Serves the shipped traffic one source at a time, each source's stream
    into its own freshly seeded tree (at most one tree is alive; for a
    kernel algorithm the tree lives only in the kernel's buffers for one
    call, see :func:`~repro.network.multi_source.serve_source_by_source`),
    and returns the aggregate totals with the per-source breakdown attached
    as columnar metadata (``metadata["per_source"]``, see
    :func:`~repro.network.multi_source.source_columns`).  The per-source
    trees are independent, so no interleave is drawn: the rows equal
    serving the interleaved trace request by request under any policy.
    Seeds are pure functions of the trial index, so results are
    bit-identical wherever and in whatever order the payload runs.
    """
    traffic = source.traffic
    per_source = serve_source_by_source(
        traffic,
        source.requests_per_source,
        payload.algorithm,
        base_seed=payload.placement_seed if payload.placement_seed is not None else 0,
    )
    metadata["per_source"] = per_source
    metadata["interleaving"] = traffic.interleaving
    return RunResult(
        algorithm=payload.algorithm_name,
        n_nodes=payload.n_nodes,
        n_requests=sum(per_source["n_requests"]),
        total_access_cost=sum(per_source["total_access_cost"]),
        total_adjustment_cost=sum(per_source["total_adjustment_cost"]),
        metadata=metadata,
    )


def _execute_adversary_trial(
    payload: TrialPayload, source: AdversarySource, metadata: Dict[str, object]
) -> RunResult:
    """Process-pool worker body for one adaptive-adversary run.

    Builds the adversary from its registry-validated spec, lets it drive its
    own algorithm instance for ``n_requests`` requests, and folds the
    per-request :class:`~repro.core.cost.RequestCost` records it produced
    into a :class:`RunResult`, as record columns when the payload keeps
    records.  The constructions are deterministic, so the result is a pure
    function of ``(spec, n_requests)`` — exactly what the cache key records.
    """
    adversary = source.adversary.build()
    _, costs = adversary.generate_with_costs(source.n_requests)
    records = RequestRecordColumns()
    for cost in costs if payload.keep_records else ():
        records.append_fields(cost.element, cost.level_at_access, cost.adjustment_cost)
    return RunResult(
        algorithm=adversary.algorithm.name,
        n_nodes=adversary.n_elements,
        n_requests=len(costs),
        total_access_cost=sum(cost.access_cost for cost in costs),
        total_adjustment_cost=sum(cost.adjustment_cost for cost in costs),
        per_request=records,
        metadata=metadata,
    )


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one algorithm on one trial sequence."""

    algorithm: str
    trial: int
    result: RunResult


@dataclass
class AggregatedOutcome:
    """Aggregate of one algorithm over all trials of a configuration.

    The statistics are over per-trial *average* costs (cost per request), which
    is what the paper's figures plot.
    """

    algorithm: str
    n_trials: int
    access_cost: Dict[str, float] = field(default_factory=dict)
    adjustment_cost: Dict[str, float] = field(default_factory=dict)
    total_cost: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_access_cost(self) -> float:
        """Mean per-request access cost over trials."""
        return self.access_cost.get("mean", 0.0)

    @property
    def mean_adjustment_cost(self) -> float:
        """Mean per-request adjustment cost over trials."""
        return self.adjustment_cost.get("mean", 0.0)

    @property
    def mean_total_cost(self) -> float:
        """Mean per-request total cost over trials."""
        return self.total_cost.get("mean", 0.0)


class TrialRunner:
    """Builds and reduces the payloads of one multi-trial comparison.

    The plan compiler's per-point helper (see :mod:`repro.plans.execute`):
    :meth:`trial_sources` and :meth:`build_payloads` turn a spec factory into
    (trial, algorithm) work items, and :meth:`collect`/:meth:`aggregate`
    fold their ordered results back into per-algorithm averages.

    Parameters
    ----------
    n_nodes:
        Tree size (must be a complete-binary-tree size).
    config:
        The run shape as a :class:`repro.plans.RunConfig`: requests per
        trial, trials, ``base_seed`` (trial ``i`` uses ``base_seed + i`` for
        the workload and derives its placement and algorithm seeds from it)
        and record mode.
    """

    def __init__(self, n_nodes: int, config: "RunConfig") -> None:
        self.n_nodes = n_nodes
        self.config = config

    def trial_sources(self, spec_factory: SpecFactory) -> List[SpecSource]:
        """Build one spec source per trial without generating any requests.

        The factory is called with the per-trial seed and returns that
        trial's :class:`~repro.workloads.spec.WorkloadSpec`; workers rebuild
        and stream it.
        """
        config = self.config
        sources: List[SpecSource] = []
        for trial in range(config.n_trials):
            spec = spec_factory(config.base_seed + trial)
            n_elements = spec.get("n_elements", self.n_nodes)
            if n_elements != self.n_nodes:
                raise ExperimentError(
                    f"workload universe {n_elements} does not match "
                    f"runner tree size {self.n_nodes}"
                )
            sources.append(SpecSource(spec, config.n_requests))
        return sources

    def build_payloads(
        self,
        algorithms: Sequence[str],
        sources: Sequence[SpecSource],
    ) -> List[TrialPayload]:
        """Build the (trial, algorithm) work items in deterministic order.

        Seeds depend only on the trial index (placement
        ``base_seed + 10_000 + trial``, algorithm ``base_seed + 20_000 +
        trial``), so the payloads — and therefore the results — are
        independent of where and in which order they are executed.  When
        :data:`repro.resilience.faults.FAULT_SPEC_ENV` is set, the requested
        fault spec is stamped onto every payload (the CI fault smoke's
        injection path).
        """
        specs = [AlgorithmSpec.coerce(algorithm) for algorithm in algorithms]
        fault = fault_spec_from_env()
        base_seed = self.config.base_seed
        payloads: List[TrialPayload] = []
        for trial, source in enumerate(sources):
            if len(specs) > 1:
                # every algorithm of this trial serves the same stream; let
                # workers generate it once, not once per algorithm
                source = replace(source, shared=True)
            placement_seed = base_seed + 10_000 + trial
            algorithm_seed = base_seed + 20_000 + trial
            for spec in specs:
                payloads.append(
                    TrialPayload(
                        algorithm=spec,
                        source=source,
                        n_nodes=self.n_nodes,
                        placement_seed=placement_seed,
                        algorithm_seed=algorithm_seed,
                        keep_records=self.config.keep_records,
                        trial=trial,
                        fault=fault,
                    )
                )
        return payloads

    @staticmethod
    def collect(
        algorithms: Sequence[str],
        payloads: Sequence[TrialPayload],
        results: Sequence[RunResult],
    ) -> Dict[str, List[TrialOutcome]]:
        """Reassemble ordered worker results into the per-algorithm outcome map."""
        outcomes: Dict[str, List[TrialOutcome]] = {
            AlgorithmSpec.coerce(algorithm).name: [] for algorithm in algorithms
        }
        for payload, result in zip(payloads, results):
            outcomes[payload.algorithm_name].append(
                TrialOutcome(
                    algorithm=payload.algorithm_name,
                    trial=payload.trial,
                    result=result,
                )
            )
        return outcomes

    @staticmethod
    def aggregate(outcomes: Dict[str, List[TrialOutcome]]) -> Dict[str, AggregatedOutcome]:
        """Aggregate per-trial average costs for every algorithm."""
        aggregated: Dict[str, AggregatedOutcome] = {}
        for name, trials in outcomes.items():
            aggregated[name] = AggregatedOutcome(
                algorithm=name,
                n_trials=len(trials),
                access_cost=summarise_values(
                    [t.result.average_access_cost for t in trials]
                ),
                adjustment_cost=summarise_values(
                    [t.result.average_adjustment_cost for t in trials]
                ),
                total_cost=summarise_values(
                    [t.result.average_total_cost for t in trials]
                ),
            )
        return aggregated
