"""Per-run execution context: the store, the resume flag, the counters.

:func:`repro.plans.execute.run` activates one :class:`ExecutionContext` for
the duration of a plan run; :func:`repro.sim.runner.execute_payloads`
consults the active context to decide whether to check the checkpoint store
before running a payload (``resume``) and where to persist each result as it
completes.  The context also carries :class:`ResilienceStats`, the counters
the resume/retry tests assert against ("re-running with ``resume=True``
executed only the missing trials").

The context travels through a :class:`contextvars.ContextVar`, not function
signatures, so the low-level runner keeps its call shapes and callers
outside a plan run (e.g. :class:`repro.sim.runner.TrialRunner`) simply see
no context — and therefore no caching.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.resilience.store import ResultStore
from repro.telemetry.registry import MetricsRegistry, default_registry

__all__ = [
    "ExecutionContext",
    "ResilienceStats",
    "activate_context",
    "current_context",
]


#: field name → (help text, is_flag).  Flags export as counters too: the
#: counter records how many runs degraded; the per-run view is "did this
#: run's slice of the counter move".
_STATS_FIELDS: Dict[str, tuple] = {
    "executed": (
        "Payloads actually run to completion (a retried payload counts once).",
        False,
    ),
    "cache_hits": (
        "Payloads skipped because a verified checkpoint entry existed.",
        False,
    ),
    "stored": ("Results persisted to the checkpoint store.", False),
    "retries": (
        "Per-payload resubmissions after an ordinary worker exception.",
        False,
    ),
    "pool_rebuilds": (
        "Pool teardown/rebuild rounds (worker death or stall past timeout).",
        False,
    ),
    "degraded": (
        "Runs that fell back to in-process serial execution.",
        True,
    ),
    "corrupt_entries": (
        "Checkpoint entries that failed verification and were re-run.",
        False,
    ),
    "remote_executed": (
        "Payloads completed by remote worker daemons.",
        False,
    ),
    "lease_expiries": (
        "Distributed leases that expired without a heartbeat and were requeued.",
        False,
    ),
    "workers_lost": (
        "Remote workers dropped from the fleet.",
        False,
    ),
    "duplicate_results": (
        "Remote completions dropped idempotently (already delivered).",
        False,
    ),
    "degraded_remote": (
        "Runs where the distributed executor lost its fleet and ran locally.",
        True,
    ),
}


class ResilienceStats:
    """Execution counters of one plan run (or one raw fan-out pass).

    Since the telemetry layer landed, this is a **thin per-run view over the
    metrics registry**: every field is backed by a process-wide counter
    (``repro_run_<field>_total``), and an instance captures each counter's
    value at construction as its baseline — reading ``stats.executed``
    returns the counter's movement since this instance was created, so the
    long-standing per-run semantics (and every existing test) are unchanged
    while the same increments feed the scrapeable registry.

    Attribute assignment keeps working (the executor layers bump fields via
    ``setattr``): a raise becomes a counter increment; a lower assignment
    (e.g. resetting to zero) only moves this instance's baseline, because
    registry counters are monotonic.  Boolean fields (``degraded``,
    ``degraded_remote``) read as "has this run's slice of the counter
    moved".

    Field meanings:

    executed:
        Payloads actually run to completion (a retried payload counts once,
        on success).
    cache_hits:
        Payloads skipped because a verified checkpoint entry existed.
    stored:
        Results persisted to the checkpoint store.
    retries:
        Per-payload resubmissions after an ordinary worker exception.
    pool_rebuilds:
        Pool teardown/rebuild rounds (worker death or stall past the worker
        timeout).
    degraded:
        Whether the executor fell back to in-process serial execution after
        exhausting its pool-rebuild budget.
    corrupt_entries:
        Checkpoint entries that failed verification and were re-run.
    remote_executed:
        Payloads completed by remote worker daemons (a subset of
        ``executed``; see :mod:`repro.dist`).
    lease_expiries:
        Distributed leases that expired without a heartbeat (worker crash,
        hang or partition) and were requeued for another worker.
    workers_lost:
        Remote workers dropped from the fleet (unreachable at connect,
        connection lost, or lease expired).
    duplicate_results:
        Remote completions dropped idempotently because another worker (or a
        requeued lease) already delivered the payload's result.
    degraded_remote:
        Whether the distributed executor lost its whole fleet and fell back
        to local execution for the unfinished payloads.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry if registry is not None else default_registry()
        counters = {}
        baselines = {}
        for name, (help_text, _flag) in _STATS_FIELDS.items():
            counter = registry.counter(f"repro_run_{name}_total", help_text)
            counters[name] = counter
            baselines[name] = counter.total()
        object.__setattr__(self, "_counters", counters)
        object.__setattr__(self, "_baselines", baselines)

    def _view(self, name: str) -> int:
        raw = self._counters[name].total() - self._baselines[name]
        return int(raw) if raw > 0 else 0

    def __getattr__(self, name: str):
        try:
            _help, is_flag = _STATS_FIELDS[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None
        view = self._view(name)
        return view > 0 if is_flag else view

    def __setattr__(self, name: str, value) -> None:
        if name not in _STATS_FIELDS:
            object.__setattr__(self, name, value)
            return
        target = int(value)
        delta = target - self._view(name)
        if delta > 0:
            self._counters[name].inc(delta)
        elif delta < 0:
            # counters are monotonic: absorb the decrease into the baseline
            self._baselines[name] = self._counters[name].total() - target
        # delta == 0 (e.g. re-setting a flag already True) is a no-op

    def as_dict(self) -> Dict[str, object]:
        """Return the counters as a plain dictionary (logging/bench output)."""
        return {name: getattr(self, name) for name in _STATS_FIELDS}

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in _STATS_FIELDS)
        return f"ResilienceStats({body})"


@dataclass
class ExecutionContext:
    """What one plan run carries down into the payload executor.

    ``store`` is the run-level override (the ``cache=`` argument of
    :func:`repro.run`); when absent, each stage's ``config.cache_dir``
    resolves its own store through :meth:`store_for`, memoised per path so a
    multi-stage experiment shares one :class:`ResultStore` per directory.
    """

    store: Optional[ResultStore] = None
    resume: bool = False
    stats: ResilienceStats = field(default_factory=ResilienceStats)
    _stores: Dict[str, ResultStore] = field(default_factory=dict)

    def store_for(self, cache_dir: Optional[str]) -> Optional[ResultStore]:
        """Resolve the store for one stage: run-level override, else config."""
        if self.store is not None:
            return self.store
        if not cache_dir:
            return None
        key = str(cache_dir)
        store = self._stores.get(key)
        if store is None:
            store = self._stores[key] = ResultStore(key)
        return store


_active: contextvars.ContextVar[Optional[ExecutionContext]] = contextvars.ContextVar(
    "repro_resilience_context", default=None
)


def current_context() -> Optional[ExecutionContext]:
    """Return the active execution context, if a plan run is in progress."""
    return _active.get()


@contextmanager
def activate_context(context: ExecutionContext):
    """Make ``context`` the active one for the duration of the block."""
    token = _active.set(context)
    try:
        yield context
    finally:
        _active.reset(token)
