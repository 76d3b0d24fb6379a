"""Process-pool fan-out for trial execution.

The paper-scale configurations (65,535 nodes, 10^6 requests, 10 trials, six
algorithms) multiply into hours of strictly serial CPU time.  Every (trial,
algorithm) work item is, however, completely independent once its seeds are
fixed: its workload spec and its placement and algorithm seeds are pure
functions of the trial index.  This module provides
the one primitive plan runs need — "map this worker over these payloads,
possibly on several processes, preserving order" — so that parallel runs are
bit-for-bit identical to serial ones by construction: the same payloads are
built in the same order, and results are reassembled by position, never by
completion time.  On the pool, payloads travel in contiguous batches sized
from their measured cost, so a campaign of many small payloads pays one
dispatch per batch rather than per payload; results, retries and
checkpoints stay per payload.

``n_jobs`` convention (every plan run through :func:`repro.run`):

* ``1`` (default) — run serially in the current process, no pool involved;
* ``k > 1`` — use up to ``k`` worker processes;
* any negative value — use one worker per available CPU.
"""

from __future__ import annotations

import atexit
import functools
import logging
import os
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.exceptions import ExperimentError
from repro.fanout import check_n_jobs
from repro.resilience.retry import RetryPolicy
from repro.telemetry.registry import default_registry
from repro.workloads.spec import registry_version

__all__ = [
    "check_n_jobs",
    "resolve_n_jobs",
    "map_ordered",
    "shutdown_persistent_pool",
]


#: Module-level alias so tests can monkeypatch the wait primitive (e.g. to
#: simulate a ``KeyboardInterrupt`` arriving mid-fan-out).
_wait = functools.partial(_futures_wait, return_when=FIRST_COMPLETED)

#: Wall time one pool batch aims at: long enough to pay a dispatch (a
#: future, pickling, two pipe hops) once for many small payloads, short
#: enough to keep checkpoints and stall detection fine-grained.
BATCH_TARGET_S = 0.05
#: Sized batches kept in flight per worker, so no worker idles on the parent.
BATCHES_PER_WORKER = 2

#: Set in pool workers by their first batch (see :func:`in_pool_worker`).
_in_pool_worker = False

#: Resilience events (retries, pool rebuilds, degradation) are logged here
#: with their payload indices and backoff delays, complementing the
#: structured counters in :class:`repro.resilience.ResilienceStats` that
#: ``last_run_stats()`` exposes.
logger = logging.getLogger("repro.resilience")

_PayloadT = TypeVar("_PayloadT")
_ResultT = TypeVar("_ResultT")


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean serial execution; negative values mean one worker
    per available CPU; ``0`` is rejected as ambiguous.
    """
    if n_jobs is None:
        return 1
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    if n_jobs == 0:
        raise ExperimentError("n_jobs must be positive or negative, not 0")
    return n_jobs


# One process pool, reused across map_ordered calls (and therefore across
# sweep points and whole experiments).  Spinning a pool up costs fork+import
# per worker; at paper scale a sweep used to pay that once per point.  The
# pool is keyed by its worker count: asking for a different n_jobs replaces
# it, asking for the same reuses it.  Workers are spawned lazily by the
# executor, so an oversized pool serving a tiny payload list costs nothing.
# All access goes through _pool_lock; map_ordered holds it for the whole
# parallel section, so concurrent threaded callers serialise their fan-outs
# rather than shutting each other's executor down mid-map.
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: int = 0
_pool_registry_version: int = -1
_pool_lock = threading.Lock()


def _acquire_pool_locked(max_workers: int) -> ProcessPoolExecutor:
    """Return the shared executor (caller must hold ``_pool_lock``).

    The pool is also keyed on the workload-registry version: forked workers
    snapshot the registry at pool creation, so a kind registered after that
    would be unknown to them.  A version bump forces a rebuild, re-forking
    the current parent state.
    """
    global _pool, _pool_workers, _pool_registry_version
    if max_workers <= 0:
        raise ExperimentError(f"max_workers must be positive, got {max_workers}")
    version = registry_version()
    if _pool is not None and (
        _pool_workers != max_workers or _pool_registry_version != version
    ):
        _shutdown_pool_locked()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=max_workers)
        _pool_workers = max_workers
        _pool_registry_version = version
    return _pool


def _shutdown_pool_locked() -> None:
    global _pool, _pool_workers, _pool_registry_version
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = 0
        _pool_registry_version = -1


def _terminate_pool_locked() -> None:
    """Tear the pool down without waiting — for broken, hung or interrupted pools.

    A graceful ``shutdown(wait=True)`` would block forever on a hung worker,
    so this path cancels queued futures, terminates the worker processes
    outright and resets the pool slot; the next :func:`_acquire_pool_locked`
    builds a fresh pool.
    """
    global _pool, _pool_workers, _pool_registry_version
    pool = _pool
    _pool = None
    _pool_workers = 0
    _pool_registry_version = -1
    if pool is None:
        return
    processes = list(getattr(pool, "_processes", None) or {})
    process_map = getattr(pool, "_processes", None) or {}
    workers = [process_map[pid] for pid in processes if pid in process_map]
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    for process in workers:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in workers:
        try:
            process.join(timeout=5.0)
        except Exception:  # pragma: no cover - already reaped
            pass


def shutdown_persistent_pool() -> None:
    """Shut the shared executor down (registered at interpreter exit)."""
    with _pool_lock:
        _shutdown_pool_locked()


atexit.register(shutdown_persistent_pool)


def in_pool_worker() -> bool:
    """True in a pool worker, whose registry the parent never reads (it
    observes the seconds each batch returns, via ``on_seconds``, instead)."""
    return _in_pool_worker


#: Makes every :func:`_count` one step: a bump reads its field and writes it
#: back, and fleet threads bump the same stats at once.
_count_lock = threading.Lock()


def _count(stats: Optional[object], name: str, amount: int = 1) -> None:
    """Bump a duck-typed counter (``ResilienceStats`` or anything like it)."""
    if stats is not None:
        with _count_lock:
            setattr(stats, name, getattr(stats, name) + amount)


def _sleep_backoff(seconds: float) -> None:
    if seconds > 0:
        time.sleep(seconds)


def _run_batch(worker: Callable[[_PayloadT], _ResultT], batch: Sequence[_PayloadT]):
    """Pool side of one dispatch: ``(ok, result or error, seconds)`` per payload.

    Each payload runs under its own ``try``, so one failure never costs its
    batch-mates their results; the seconds travel next to the result, never
    inside it.
    """
    global _in_pool_worker
    _in_pool_worker = True
    records = []
    for payload in batch:
        started = time.perf_counter()
        try:
            record = (True, worker(payload))
        except Exception as error:
            record = (False, error)
        records.append((*record, time.perf_counter() - started))
    return records


def _batch_size(cost: float, unsent: int, jobs: int, worker_timeout: Optional[float]) -> int:
    """Payloads in the next batch, from the largest per-payload cost seen so far.

    A batch targets :data:`BATCH_TARGET_S` of work, at most a quarter of
    ``worker_timeout`` (so a stall still means a stall), and at most
    ``1/(4·jobs)`` of what is left to send (so the tail stays balanced).
    Payloads costlier than the target go one per batch.
    """
    if cost <= 0.0:
        return 1
    budget = BATCH_TARGET_S if worker_timeout is None else min(BATCH_TARGET_S, worker_timeout / 4)
    return max(1, min(int(budget / cost), -(-unsent // (4 * jobs))))


class _Run:
    """Results and retry book-keeping of one ``map_ordered`` call.

    Every rung of the ladder (fleet, pool, serial) reads and writes the same
    run.  Fleet threads complete payloads concurrently, hence the lock.
    """

    def __init__(self, worker, payloads, policy, on_result, on_seconds, stats) -> None:
        self.worker = worker
        self.payloads = payloads
        self.policy = policy
        self.on_result = on_result
        self.on_seconds = on_seconds
        self.stats = stats
        self.results: List[Optional[_ResultT]] = [None] * len(payloads)
        self.finished = [False] * len(payloads)
        self.attempts = [0] * len(payloads)
        self.cost = 0.0  # largest per-payload seconds measured on the pool
        self.failure: Optional[BaseException] = None  # an exhausted payload's
        self._lock = threading.Lock()

    def unfinished(self) -> List[int]:
        return [index for index, ok in enumerate(self.finished) if not ok]

    def complete(self, index: int, result: _ResultT) -> bool:
        """Record a payload's result; False if it was already finished."""
        with self._lock:
            if self.finished[index]:
                return False
            self.results[index] = result
            self.finished[index] = True
            _count(self.stats, "executed")
        if self.on_result is not None:
            self.on_result(index, result)
        return True

    def may_retry(self, index: int, error: BaseException, where: str) -> bool:
        """Count a failed attempt; True (after the backoff) if it may retry."""
        self.attempts[index] += 1
        if self.attempts[index] > self.policy.max_retries:
            self.failure = self.failure or error
            return False
        _count(self.stats, "retries")
        delay = self.policy.delay(self.attempts[index], token=index)
        logger.warning(
            "payload %d failed %s (%r); retry %d/%d in %.3fs",
            index, where, error, self.attempts[index], self.policy.max_retries, delay,
        )
        _sleep_backoff(delay)
        return True

    def step_down(self, flag: str, message: str) -> None:
        """Leave a rung: warn, set ``stats.<flag>`` and reset every budget."""
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        logger.error(
            "fan-out steps down (%s); %d payloads unfinished", flag, len(self.unfinished())
        )
        if self.stats is not None:
            setattr(self.stats, flag, True)
        self.attempts = [0] * len(self.payloads)

    def serial(self, indices: Sequence[int]) -> None:
        """Run the given payload indices in order, in this process."""
        for index in indices:
            while True:
                try:
                    result = self.worker(self.payloads[index])
                except Exception as error:
                    if self.may_retry(index, error, "in-process"):
                        continue
                    raise
                self.complete(index, result)
                break

    def drain(self, pool: ProcessPoolExecutor, jobs: int, worker_timeout: Optional[float]) -> bool:
        """Dispatch the unfinished payloads in batches; True if the pool must go.

        The first batch per worker is one payload; after that about
        :data:`BATCHES_PER_WORKER` sized batches per worker stay in flight.
        A failed payload is retried alone (a batch of one) on the same pool
        until its budget runs out; then nothing new is sent, the batches in
        flight are collected (their results persisted) and :attr:`failure`
        is set.  A broken pool or a stall (no batch completing within
        ``worker_timeout``) returns ``True``: the caller rebuilds the pool
        and resubmits whatever is still unfinished.
        """
        unsent = deque(self.unfinished())
        inflight: Dict[object, List[int]] = {}

        def submit(batch: List[int]) -> None:
            future = pool.submit(_run_batch, self.worker, [self.payloads[i] for i in batch])
            inflight[future] = batch

        try:
            while unsent and len(inflight) < jobs:
                submit([unsent.popleft()])
            while inflight:
                done, _ = _wait(set(inflight), timeout=worker_timeout)
                if not done:
                    # No batch finished a whole timeout window: a worker is
                    # hung, and ProcessPoolExecutor cannot abort one task.
                    return True
                retry: List[int] = []
                for future in done:
                    batch = inflight.pop(future)
                    try:
                        records = future.result()
                    except BrokenProcessPool:
                        # A worker died; every sibling future is doomed too.
                        return True
                    except Exception as error:  # the batch's results were lost
                        records = [(False, error, None)] * len(batch)
                    for index, (ok, value, seconds) in zip(batch, records):
                        if self.on_seconds is not None and seconds is not None:
                            self.on_seconds(index, seconds)
                        if ok:
                            self.cost = max(self.cost, seconds)
                            self.complete(index, value)
                        elif self.may_retry(index, value, "on the pool"):
                            retry.append(index)
                if self.failure is not None:
                    unsent.clear()
                    continue
                for index in retry:
                    submit([index])
                while unsent and len(inflight) < BATCHES_PER_WORKER * jobs:
                    size = _batch_size(self.cost, len(unsent), jobs, worker_timeout)
                    submit([unsent.popleft() for _ in range(min(size, len(unsent)))])
        except BrokenProcessPool:
            return True
        return False


def _pool_rung(run: _Run, jobs: int, worker_timeout: Optional[float]) -> int:
    """Drain ``run`` on the pool, rebuilding it after every break or stall.

    Returns the number of rebuilds once nothing is left, once a payload has
    exhausted its budget (:attr:`_Run.failure`), or once there were more
    than ``max_retries`` of them.
    """
    rebuilds = 0
    while run.unfinished() and run.failure is None:
        if not run.drain(_acquire_pool_locked(jobs), jobs, worker_timeout):
            continue
        _terminate_pool_locked()
        if run.failure is not None:
            break
        rebuilds += 1
        _count(run.stats, "pool_rebuilds")
        logger.warning(
            "process pool broke or stalled; rebuild %d/%d (%d payloads unfinished)",
            rebuilds, run.policy.max_retries, len(run.unfinished()),
        )
        if rebuilds > run.policy.max_retries:
            # The pool keeps dying (poisoned payload? resource exhaustion?);
            # the serial rung finishes the campaign, slower and unisolated.
            break
        _sleep_backoff(run.policy.delay(rebuilds))
    return rebuilds


def map_ordered(
    worker: Callable[[_PayloadT], _ResultT],
    payloads: Sequence[_PayloadT],
    n_jobs: Optional[int] = 1,
    *,
    worker_timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[int, _ResultT], None]] = None,
    on_seconds: Optional[Callable[[int, float], None]] = None,
    stats: Optional[object] = None,
    fleet: Optional[object] = None,
) -> List[_ResultT]:
    """Apply ``worker`` to every payload, preserving payload order.

    One run walks a ladder of rungs, each taking what the one above left
    unfinished: ``fleet`` (a :class:`repro.dist.DistributedExecutor`, when
    given), then the process pool (when ``n_jobs`` resolves above 1 and more
    than one payload is left), then in-process serial execution, which
    always finishes.  Every rung completes payloads into the same result
    slots under the same per-payload retry budgets, so the result list is
    ordered by payload position whoever computed each entry.

    On the pool, payloads go in contiguous batches, in payload order, to the
    persistent :class:`concurrent.futures.ProcessPoolExecutor` (created on
    first use, reused across calls); ``worker`` must be a module-level
    function and the payloads picklable.  The first batch per worker is one
    payload; later ones are sized from the largest per-payload time measured
    so far to take about :data:`BATCH_TARGET_S` (see :func:`_batch_size`),
    so small payloads pay one dispatch per batch while costlier ones still
    go one per future.

    Fault isolation:

    * an ordinary worker exception retries only *that* payload (alone, on
      the pool) under ``retry`` (capped exponential backoff; default
      :class:`repro.resilience.RetryPolicy`).  When its budget runs out,
      nothing new is sent, the work in flight is collected (through
      ``on_result``) and then the exception propagates;
    * a dead worker (``BrokenProcessPool``) or a stall — no batch
      completing within ``worker_timeout`` seconds — tears the pool down
      (hung workers are terminated), rebuilds it, and resubmits only the
      unfinished payloads; completed results are never discarded;
    * a fleet that loses every worker, or a pool rebuilt more than
      ``retry.max_retries`` times, hands the rest to the next rung with a
      :class:`RuntimeWarning`, sets ``stats.degraded_remote`` or
      ``stats.degraded`` and resets every attempt budget — results are pure
      functions of their payloads, so the output is bit-identical either
      way;
    * ``KeyboardInterrupt`` cancels queued futures, terminates the pool and
      re-raises, so an interrupted campaign never leaks orphaned workers.

    ``on_result(index, result)`` fires once per payload as it completes
    (completion order, not payload order) — the checkpoint-store hook that
    makes campaigns crash-safe.  ``on_seconds(index, seconds)`` receives, in
    this process, the worker-side wall time of each payload attempt that ran
    on the pool.  ``stats`` is a duck-typed counter object (see
    :class:`repro.resilience.ResilienceStats`).  One
    ``repro_fanout_seconds`` observation times the whole call, labelled by
    its first rung.
    """
    policy = RetryPolicy() if retry is None else retry
    jobs = resolve_n_jobs(n_jobs)
    run = _Run(worker, payloads, policy, on_result, on_seconds, stats)
    pooled = jobs > 1 and len(payloads) > 1
    started = time.perf_counter()
    try:
        if fleet is not None:
            fleet.drain(run)
            if run.failure is not None:
                raise run.failure
            if run.unfinished():
                run.step_down(
                    "degraded_remote",
                    f"distributed executor lost its worker fleet with "
                    f"{len(run.unfinished())} payloads unfinished; degrading to "
                    f"local execution (n_jobs={n_jobs})",
                )
        if jobs > 1 and len(run.unfinished()) > 1:
            with _pool_lock:
                try:
                    rebuilds = _pool_rung(run, jobs, worker_timeout)
                except (KeyboardInterrupt, SystemExit):
                    # Leave no orphaned workers behind: cancel queued futures,
                    # terminate the pool and surface the interrupt to the caller.
                    _terminate_pool_locked()
                    raise
            if run.failure is not None:
                raise run.failure
            if run.unfinished():
                run.step_down(
                    "degraded",
                    f"process pool broke {rebuilds} times (retry budget "
                    f"{policy.max_retries}); degrading to in-process serial "
                    f"execution for the {len(run.unfinished())} remaining payloads",
                )
        run.serial(run.unfinished())
        return run.results  # type: ignore[return-value]
    finally:
        default_registry().histogram(
            "repro_fanout_seconds",
            "Wall time of one map_ordered fan-out, labelled by its first rung.",
            labels=("mode",),
        ).observe(
            time.perf_counter() - started,
            mode="fleet" if fleet is not None else "pool" if pooled else "serial",
        )
