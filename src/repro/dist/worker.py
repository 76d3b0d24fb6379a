"""The worker daemon of the distributed executor.

``repro worker --listen tcp://0.0.0.0:PORT`` runs one long-lived daemon that
serves one coordinator session at a time: it answers the protocol handshake,
executes leased payloads through the exact same
:func:`repro.sim.runner._execute_trial` body the process-pool workers run,
and keeps the lease alive by heartbeating while it computes.  Execution
happens on a background thread so the connection thread can keep its
heartbeat cadence however long a trial takes; all socket writes stay on the
connection thread, so frames never interleave.

Results are self-verifying: each ``result`` frame carries the payload's
content key (:func:`repro.resilience.store.payload_key`, recomputed here
from the payload the worker actually rebuilt) alongside the
:func:`~repro.resilience.store.result_to_dict` document.  The coordinator
recomputes the key from *its* copy of the payload before accepting, so a
protocol mixup — a result attached to the wrong lease, a worker rebuilding
a different payload than it was sent — is detected, never silently merged.

Worker-level fault injection (see :mod:`repro.resilience.faults`): payloads
may carry a :class:`~repro.resilience.FaultSpec` whose mode targets the
*daemon* rather than the trial — ``worker_crash`` kills the whole process,
``worker_hang`` stops the heartbeat past any lease timeout, and
``worker_partition`` drops the connection abruptly.  Trigger budgets live in
arm files exactly like the pool-level modes, so "kill one worker, then let
the retried payload complete" is deterministic across the daemon deaths it
causes.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
import time
from typing import Optional

from repro.dist.framing import parse_listen_address  # noqa: F401 - re-export
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    DEFAULT_HEARTBEAT_INTERVAL,
    ProtocolError,
    payload_from_dict,
    recv_frame,
    send_frame,
)
from repro.resilience.faults import WORKER_FAULT_MODES
from repro.resilience.store import payload_key, result_to_dict
from repro.sim.runner import _execute_trial, _shared_chunks_cache
from repro.telemetry.export import metrics_frame, start_metrics_server
from repro.telemetry.registry import MetricsRegistry, default_registry
from repro.telemetry.trace import Tracer, default_tracer, span_id

__all__ = ["WorkerServer", "parse_listen_address", "run_worker"]

logger = logging.getLogger("repro.dist")

#: How often the accept loop wakes up to check the stop flag (seconds).
_ACCEPT_POLL = 0.2


def _execute_in_thread(payload, box: dict, done: threading.Event) -> None:
    """Background execution body: fill ``box`` with the outcome, then signal."""
    try:
        box["result"] = _execute_trial(payload)
    except BaseException as error:  # noqa: BLE001 - reported to the coordinator
        box["error"] = error
    finally:
        done.set()


class _SessionClosed(Exception):
    """Internal: the current coordinator session must end (worker survives)."""


class WorkerServer:
    """A worker daemon: listens for a coordinator and serves leases.

    Usable as a long-running process (:func:`run_worker`, the ``repro
    worker`` CLI) or embedded in-process for tests (``start()``/``stop()``
    run the accept loop on a background thread).  ``port=0`` binds an
    ephemeral port; :attr:`address` reports the bound endpoint either way.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self._listener.settimeout(_ACCEPT_POLL)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Sessions served and payloads completed (introspected by tests).
        self.sessions = 0
        self.completed = 0
        self.metrics_registry = registry if registry is not None else default_registry()
        self.tracer = tracer if tracer is not None else default_tracer()
        reg = self.metrics_registry
        self._m_sessions = reg.counter(
            "repro_worker_sessions_total", "Coordinator sessions accepted."
        )
        self._m_leases = reg.counter(
            "repro_worker_leases_total", "Leases received for execution."
        )
        self._m_results = reg.counter(
            "repro_worker_results_total", "Lease results delivered."
        )
        self._m_errors = reg.counter(
            "repro_worker_errors_total", "Leases that raised during execution."
        )
        self._m_heartbeats = reg.counter(
            "repro_worker_heartbeats_total", "Heartbeat frames sent mid-lease."
        )
        self._m_lease_seconds = reg.histogram(
            "repro_worker_lease_seconds",
            "Wall time from lease receipt to result (or error) sent.",
        )

    @property
    def address(self) -> str:
        """The bound endpoint as an executor-address component."""
        return f"tcp://{self.host}:{self.port}"

    # ----------------------------------------------------------- lifecycle

    def serve_forever(self) -> None:
        """Accept coordinator sessions until :meth:`stop` is called."""
        try:
            while not self._stop.is_set():
                try:
                    connection, peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us (stop())
                self.sessions += 1
                self._m_sessions.inc()
                try:
                    self._serve_session(connection, peer)
                except _SessionClosed:
                    pass
                except (ConnectionError, socket.timeout, OSError) as error:
                    logger.info("worker %s: session ended (%s)", self.address, error)
                except ProtocolError as error:
                    logger.warning(
                        "worker %s: protocol violation (%s)", self.address, error
                    )
                finally:
                    try:
                        connection.close()
                    except OSError:
                        pass
                    _shared_chunks_cache.clear()
        finally:
            try:
                self._listener.close()
            except OSError:
                pass

    def start(self) -> "WorkerServer":
        """Run the accept loop on a daemon thread (test embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"repro-worker-{self.port}", daemon=True
        )
        self._thread.start()
        return self

    def request_stop(self) -> None:
        """Ask the daemon to drain: finish the in-flight lease, then exit.

        Safe to call from a signal handler: it only flips the stop flag and
        closes the listener.  The flag is observed between frames (the
        ``_recv`` poll) and between sessions (the accept loop) — never
        inside :meth:`_serve_lease` — so a payload that is mid-execution
        keeps heartbeating to completion and its ``result`` frame still
        reaches the coordinator before the session ends.
        """
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Stop accepting and close the listener (idempotent)."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -------------------------------------------------------- one session

    def _serve_session(self, connection: socket.socket, peer) -> None:
        """Serve one coordinator until shutdown, disconnect or stop()."""
        connection.settimeout(_ACCEPT_POLL)
        hello = self._recv(connection)
        if hello.get("type") != "hello" or hello.get("protocol") != PROTOCOL_VERSION:
            send_frame(
                connection,
                {"type": "error", "error": f"protocol mismatch: {hello!r}"},
            )
            raise ProtocolError(f"bad handshake from {peer}: {hello!r}")
        send_frame(
            connection,
            {"type": "welcome", "protocol": PROTOCOL_VERSION, "pid": os.getpid()},
        )
        logger.info("worker %s: coordinator %s connected", self.address, peer)
        while True:
            message = self._recv(connection)
            kind = message.get("type")
            if kind == "shutdown":
                raise _SessionClosed
            if kind == "metrics":
                send_frame(
                    connection,
                    metrics_frame(
                        self.metrics_registry,
                        self.tracer,
                        include_trace=bool(message.get("trace")),
                    ),
                )
                continue
            if kind != "lease":
                raise ProtocolError(f"unexpected message {kind!r} from {peer}")
            self._serve_lease(connection, message)

    def _recv(self, connection: socket.socket):
        """Receive one frame, waking periodically to honour stop()."""
        while True:
            if self._stop.is_set():
                raise _SessionClosed
            try:
                return recv_frame(connection)
            except socket.timeout:
                continue

    def _serve_lease(self, connection: socket.socket, message: dict) -> None:
        """Execute one leased payload, heartbeating until the result is out."""
        lease_id = message.get("lease_id")
        payload = payload_from_dict(message.get("payload"))
        heartbeat = float(message.get("heartbeat") or DEFAULT_HEARTBEAT_INTERVAL)
        self._maybe_inject_worker_fault(connection, payload)
        self._m_leases.inc()
        started = time.perf_counter()
        started_wall = time.time()
        key = payload_key(payload)
        box: dict = {}
        done = threading.Event()
        executor = threading.Thread(
            target=_execute_in_thread,
            args=(payload, box, done),
            name=f"repro-worker-exec-{lease_id}",
            daemon=True,
        )
        executor.start()
        while not done.wait(timeout=heartbeat):
            send_frame(connection, {"type": "heartbeat", "lease_id": lease_id})
            self._m_heartbeats.inc()
        if "error" in box:
            self._m_errors.inc()
            self._m_lease_seconds.observe(time.perf_counter() - started)
            send_frame(
                connection,
                {
                    "type": "error",
                    "lease_id": lease_id,
                    "error": repr(box["error"]),
                },
            )
            return
        result = box["result"]
        send_frame(
            connection,
            {
                "type": "result",
                "lease_id": lease_id,
                "key": key,
                "result": result_to_dict(result),
            },
        )
        self.completed += 1
        self._m_results.inc()
        duration = time.perf_counter() - started
        self._m_lease_seconds.observe(duration)
        self.tracer.record(
            "worker.lease",
            span_id("payload", key),
            start=started_wall,
            duration=duration,
            lease_id=lease_id,
            trial=payload.trial,
            algorithm=payload.algorithm_name,
        )

    def _maybe_inject_worker_fault(
        self, connection: socket.socket, payload
    ) -> None:
        """Fire a worker-level fault if the payload arms one with budget left.

        These modes target the daemon itself, so they are handled here — on
        the connection thread, before any execution starts — rather than in
        :func:`repro.resilience.faults.maybe_inject` (which runs them as
        no-ops, keeping local pool and serial re-execution clean).
        """
        fault = payload.fault
        if (
            fault is None
            or fault.mode not in WORKER_FAULT_MODES
            or payload.trial not in fault.trials
            or not fault._claim_trigger(payload.trial, payload.algorithm_name)
        ):
            return
        logger.warning(
            "worker %s: injected fault %r firing (trial %d, %s)",
            self.address,
            fault.mode,
            payload.trial,
            payload.algorithm_name,
        )
        if fault.mode == "worker_crash":
            os._exit(21)
        if fault.mode == "worker_hang":
            # sleep on the connection thread: heartbeats stop, the lease
            # expires coordinator-side, the payload is requeued elsewhere
            time.sleep(fault.hang_seconds)
            raise _SessionClosed
        # worker_partition: drop the connection abruptly (simulated netsplit)
        # but keep the daemon alive for a later session
        try:
            connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        raise _SessionClosed


def run_worker(listen: str, metrics: Optional[str] = None) -> int:
    """Run one worker daemon until interrupted (the ``repro worker`` body).

    Prints the bound endpoint (``worker listening on tcp://host:port``) once
    the listener is up, so launch scripts can wait for readiness and recover
    the port when ``:0`` asked for an ephemeral one.  ``metrics``
    (``tcp://HOST:PORT``) mounts the Prometheus/JSON metrics endpoint.

    SIGTERM and SIGINT both drain rather than kill: the in-flight lease (if
    any) finishes executing and its result is delivered, then the daemon
    exits 0 printing ``worker drained``.  Coordinators therefore never see a
    lease expire just because the fleet was being rotated.
    """
    host, port = parse_listen_address(listen)
    server = WorkerServer(host, port)
    endpoint = start_metrics_server(
        metrics, server.metrics_registry, server.tracer
    )
    if endpoint is not None:
        print(f"metrics listening on {endpoint.url}", flush=True)

    def _drain(signum: int, _frame: object) -> None:
        print(f"worker draining on {signal.Signals(signum).name}", flush=True)
        server.request_stop()

    # handlers go in before the readiness banner: a supervisor that signals
    # the moment it sees the banner must always hit the drain path
    previous = {
        sig: signal.signal(sig, _drain) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(f"worker listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.stop()
        if endpoint is not None:
            endpoint.stop()
    print(f"worker drained ({server.completed} leases completed)", flush=True)
    return 0
