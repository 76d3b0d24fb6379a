"""Lease-based coordinator: dispatch payloads to worker daemons, survive loss.

:class:`DistributedExecutor` is the fleet rung of the one fan-out ladder in
:func:`repro.sim.parallel.map_ordered`, behind ``repro.run(plan,
executor="tcp://...")``.  It owns no execution semantics of its own — every
result byte is produced by the same trial body that serial runs use — and no
book-keeping either: result slots, retry budgets, backoff and failure live in
the run it drains.  Its job is *placement under failure*:

* **leases** — each pending payload is leased to exactly one worker with a
  deadline; any frame from that worker (heartbeat or result) renews it.  A
  deadline passing with no frame — worker crash, hang, network partition —
  expires the lease: the connection is dropped, the worker leaves the fleet
  and the payload is requeued for another worker.
* **verification** — a ``result`` frame is accepted only if the worker's
  claimed content key equals :func:`~repro.resilience.store.payload_key`
  recomputed from the coordinator's own copy of the payload, and the result
  document round-trips through the checkpoint-store codec.  Duplicate
  completions (lease races) resolve idempotently: the first verified result
  wins, later ones are counted and dropped.
* **retries** — a worker-reported execution error goes through the run's
  retry step (seeded-jitter backoff) and the payload is requeued; exhausting
  the budget fails the run with the worker's error.

Payloads still unfinished when the whole fleet is gone stay in the run, and
``map_ordered`` hands them to the local pool and then to in-process serial
execution.  Results are pure functions of payload content, so every rung of
the ladder is byte-identical.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ExecutorSpec,
    ProtocolError,
    payload_to_dict,
    recv_frame,
    send_frame,
)
from repro.exceptions import ExperimentError
from repro.resilience.store import payload_key, result_from_dict
from repro.sim.parallel import _count
from repro.telemetry.registry import MetricsRegistry, default_registry
from repro.telemetry.trace import Tracer, default_tracer, span_id

if TYPE_CHECKING:
    from repro.sim.parallel import _Run

__all__ = ["DistributedExecutor"]

logger = logging.getLogger("repro.dist")

#: Seconds allowed for the TCP connect + handshake of one worker.
_CONNECT_TIMEOUT = 5.0

#: Granularity of the coordinator's receive loop: small enough to notice an
#: expired deadline promptly, without busy-waiting.
_POLL_TIMEOUT = 0.25


class DistributedExecutor:
    """The fleet rung of a :func:`~repro.sim.parallel.map_ordered` run.

    Single-use: :meth:`drain` leases the run's unfinished payloads across
    the fleet and returns once every payload is finished, the run has
    failed, or no worker is left; ``map_ordered`` degrades what remains.
    """

    def __init__(
        self,
        spec: ExecutorSpec,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._queue: deque = deque()
        self._run: Optional["_Run"] = None
        self._keys: List[str] = []
        self._abort = threading.Event()
        self._lease_counter = 0
        self._enqueued: Dict[int, float] = {}
        self.metrics_registry = registry if registry is not None else default_registry()
        self.tracer = tracer if tracer is not None else default_tracer()
        reg = self.metrics_registry
        self._m_leases = reg.counter(
            "repro_dist_leases_total", "Leases granted to workers."
        )
        self._m_renewals = reg.counter(
            "repro_dist_lease_renewals_total",
            "Lease deadline renewals (any frame received on an active lease).",
        )
        self._m_expiries = reg.counter(
            "repro_dist_lease_expiries_total",
            "Leases that expired without a frame before the deadline.",
        )
        self._m_requeues = reg.counter(
            "repro_dist_requeues_total",
            "Payloads requeued after an expiry, error retry, or lost worker.",
        )
        self._m_duplicates = reg.counter(
            "repro_dist_duplicate_drops_total",
            "Duplicate remote completions dropped idempotently.",
        )
        self._m_in_flight = reg.gauge(
            "repro_dist_in_flight",
            "Leases currently held, per worker.",
            labels=("worker",),
        )
        self._m_heartbeat_rtt = reg.histogram(
            "repro_dist_heartbeat_rtt_seconds",
            "Gap between frames on an active lease, as seen by the coordinator.",
        )
        self._m_queue_wait = reg.histogram(
            "repro_dist_queue_wait_seconds",
            "Time a payload waits in the dispatch queue before a lease grant.",
        )

    # ------------------------------------------------------------ dispatch

    def drain(self, run: "_Run") -> None:
        """Lease every unfinished payload of ``run`` across the fleet.

        Results go into the run (:meth:`~repro.sim.parallel._Run.complete`);
        an execution error goes through its retry step.  Returns when the
        run is finished or failed, or when every worker has left the fleet.
        """
        pending = run.unfinished()
        if not pending:
            return
        self._run = run
        self._keys = [payload_key(payload) for payload in run.payloads]
        self._queue = deque(pending)
        now = time.perf_counter()
        self._enqueued = {index: now for index in pending}
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(host, port),
                name=f"repro-dist-{host}:{port}",
                daemon=True,
            )
            for host, port in self.spec.workers
        ]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                while thread.is_alive():
                    thread.join(timeout=0.5)
        except (KeyboardInterrupt, SystemExit):
            self._abort.set()
            for thread in threads:
                thread.join(timeout=5.0)
            raise

    def _next_index(self) -> Optional[int]:
        with self._lock:
            if self._queue:
                return self._queue.popleft()
        return None

    def _all_done(self) -> bool:
        return all(self._run.finished)

    def _requeue(self, index: int) -> None:
        with self._lock:
            self._queue.append(index)
            self._enqueued[index] = time.perf_counter()
        self._m_requeues.inc()

    def _record(self, index: int, lease_id: int, message: dict) -> bool:
        """Verify and record one ``result`` frame; False if dropped.

        Acceptance requires the worker's claimed content key to equal the
        coordinator-side recomputation for that payload — a cheap end-to-end
        check that the worker rebuilt (and ran) exactly what it was leased.
        """
        if message.get("key") != self._keys[index]:
            raise ProtocolError(
                f"worker returned content key {message.get('key')!r} for "
                f"payload {index}, expected {self._keys[index]!r} — refusing "
                "the result"
            )
        fresh = self._run.complete(index, result_from_dict(message.get("result")))
        _count(self._run.stats, "remote_executed" if fresh else "duplicate_results")
        if not fresh:
            self._m_duplicates.inc()
            logger.info(
                "dist: duplicate completion for payload %d (lease %d) "
                "dropped idempotently",
                index,
                lease_id,
            )
        return fresh

    # -------------------------------------------------------- worker loop

    def _worker_loop(self, host: str, port: int) -> None:
        """One fleet member: lease, await frames, renew or expire."""
        label = f"{host}:{port}"
        try:
            connection = socket.create_connection(
                (host, port), timeout=_CONNECT_TIMEOUT
            )
        except OSError as error:
            logger.warning("dist: worker %s unreachable (%s)", label, error)
            _count(self._run.stats, "workers_lost")
            return
        index: Optional[int] = None
        try:
            send_frame(connection, {"type": "hello", "protocol": PROTOCOL_VERSION})
            connection.settimeout(_CONNECT_TIMEOUT)
            welcome = recv_frame(connection)
            if (
                welcome.get("type") != "welcome"
                or welcome.get("protocol") != PROTOCOL_VERSION
            ):
                raise ProtocolError(f"bad handshake from worker {label}: {welcome!r}")
            connection.settimeout(_POLL_TIMEOUT)
            while not self._abort.is_set() and self._run.failure is None:
                index = self._next_index()
                if index is None:
                    if self._all_done():
                        self._shutdown(connection)
                        return
                    # the queue is empty but a peer still holds a lease: its
                    # expiry may requeue the payload, so idle — don't retire
                    time.sleep(_POLL_TIMEOUT)
                    continue
                if not self._serve_lease(connection, label, index):
                    return  # lease expired or link broke: _serve_lease requeued
                index = None
        except (ConnectionError, socket.timeout, OSError, ProtocolError) as error:
            logger.warning("dist: worker %s lost (%s)", label, error)
            _count(self._run.stats, "workers_lost")
            if index is not None and not self._run.finished[index]:
                self._requeue(index)
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def _serve_lease(self, connection: socket.socket, label: str, index: int) -> bool:
        """Lease payload ``index`` to this worker; True to keep the worker.

        Returns ``False`` when the worker must leave the fleet (expired
        lease); connection-level failures propagate to :meth:`_worker_loop`,
        which requeues and retires the worker the same way.
        """
        with self._lock:
            self._lease_counter += 1
            lease_id = self._lease_counter
            enqueued_at = self._enqueued.pop(index, None)
        granted = time.perf_counter()
        granted_wall = time.time()
        if enqueued_at is not None:
            self._m_queue_wait.observe(granted - enqueued_at)
        self._m_leases.inc()
        self._m_in_flight.set(1, worker=label)
        try:
            send_frame(
                connection,
                {
                    "type": "lease",
                    "lease_id": lease_id,
                    "heartbeat": self.spec.heartbeat_interval,
                    "payload": payload_to_dict(self._run.payloads[index]),
                },
            )
            deadline = time.monotonic() + self.spec.lease_timeout
            last_frame = time.perf_counter()
            while not self._abort.is_set():
                try:
                    message = recv_frame(connection)
                except socket.timeout:
                    if time.monotonic() > deadline:
                        logger.warning(
                            "dist: lease %d on worker %s expired (payload %d); "
                            "requeueing and dropping the worker",
                            lease_id,
                            label,
                            index,
                        )
                        _count(self._run.stats, "lease_expiries")
                        _count(self._run.stats, "workers_lost")
                        self._m_expiries.inc()
                        self._requeue(index)
                        return False
                    continue
                deadline = time.monotonic() + self.spec.lease_timeout
                now = time.perf_counter()
                self._m_heartbeat_rtt.observe(now - last_frame)
                last_frame = now
                self._m_renewals.inc()
                kind = message.get("type")
                if kind == "heartbeat":
                    continue
                if kind == "result":
                    if self._record(index, lease_id, message):
                        duration = time.perf_counter() - granted
                        self.tracer.record(
                            "dist.lease",
                            span_id("payload", self._keys[index]),
                            start=granted_wall,
                            duration=duration,
                            lease_id=lease_id,
                            worker=label,
                            payload=index,
                        )
                    return True
                if kind == "error":
                    return self._handle_error(label, index, message)
                raise ProtocolError(
                    f"unexpected message {kind!r} from worker {label}"
                )
            return False
        finally:
            self._m_in_flight.set(0, worker=label)

    def _handle_error(self, label: str, index: int, message: dict) -> bool:
        """A worker reported an execution error: requeue it or fail the run."""
        run = self._run
        error = ExperimentError(
            f"payload {index} failed on worker {label} after "
            f"{run.attempts[index]} retries: {message.get('error')}"
        )
        if run.may_retry(index, error, "on the fleet"):
            self._requeue(index)
        return True

    def _shutdown(self, connection: socket.socket) -> None:
        try:
            send_frame(connection, {"type": "shutdown"})
        except OSError:  # pragma: no cover - worker already gone
            pass
