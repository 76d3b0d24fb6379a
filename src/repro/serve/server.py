"""The live serve daemon: asyncio front-end over the shared wire framing.

``repro serve --listen tcp://0.0.0.0:PORT`` runs one :class:`ServeServer`.
The conversation (all frames are the length-prefixed JSON envelopes of
:mod:`repro.dist.framing`) is session-oriented:

================   ==================  =====================================
message            direction           meaning
================   ==================  =====================================
``hello``          client → server     handshake (protocol version)
``welcome``        server → client     handshake reply (version, config)
``open_session``   client → server     bind this connection to a source
``session``        server → client     bound (source id, queue limit)
``request``        client → server     one destination (id-tagged)
``request_batch``  client → server     a batch of destinations (id-tagged)
``busy``           server → client     queue full — backpressure, retry
``reply``          server → client     batch served (costs, queue depth)
``stats``          client → server     live totals / queue depths / table
``drain``          client → server     block until this session is drained
``drained``        server → client     session queue empty, log flushed
``close``          client → server     end the session politely
``closed``         server → client     goodbye
``error``          server → client     rejected message (reason)
================   ==================  =====================================

Backpressure is explicit and bounded: each session owns a queue of at most
``queue_limit`` pending batches.  A ``request``/``request_batch`` that
arrives with the queue full is answered *immediately* with ``busy``
(carrying the depth and limit) and is neither queued, logged nor served —
the server never buffers unboundedly, clients decide whether to retry.

The engine task is the only consumer: it round-robins bound sessions in
source-id order, serving one queued batch per session per sweep, so the
interleaving of sessions is deterministic given arrival order and per-source
costs are replayable regardless of it (trees are independent).

Graceful shutdown (SIGTERM/SIGINT under ``repro serve``, or
:meth:`ServeServer.request_stop`): stop accepting connections and new
requests, drain every session queue through the engine, flush and close the
ingest log, report final totals, exit 0.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.algorithms.registry import AlgorithmSpec
from repro.dist.framing import (
    ProtocolError,
    parse_listen_address,
    read_frame,
    write_frame,
)
from repro.dist.protocol import PROTOCOL_VERSION
from repro.serve.engine import ServeEngine, ServeError
from repro.serve.ingest import DEFAULT_SEGMENT_BYTES, IngestWriter
from repro.telemetry.export import metrics_frame, start_metrics_server
from repro.telemetry.registry import MetricsRegistry, default_registry
from repro.telemetry.snapshots import MetricsSnapshotWriter
from repro.telemetry.trace import Tracer, default_tracer, span_id

__all__ = ["DEFAULT_QUEUE_LIMIT", "ServeServer", "run_serve"]

#: Default bound on each session's pending-batch queue.
DEFAULT_QUEUE_LIMIT = 64


class _Session:
    """One bound source's connection-side state."""

    __slots__ = ("name", "source_id", "queue", "writer", "in_flight", "seq")

    def __init__(self, name: str, source_id: int) -> None:
        self.name = name
        self.source_id = source_id
        #: Pending (reply id, destinations, enqueued-at, sequence) batches,
        #: engine-consumed FIFO.  The enqueue timestamp feeds the
        #: enqueue-to-reply latency histogram; the per-session sequence
        #: index derives the deterministic span ID.
        self.queue: Deque[Tuple[object, List[int], float, int]] = deque()
        #: The active connection's stream writer (None when disconnected).
        self.writer: Optional[asyncio.StreamWriter] = None
        self.in_flight = False
        self.seq = 0

    @property
    def pending(self) -> int:
        return len(self.queue) + (1 if self.in_flight else 0)


class ServeServer:
    """A live traffic endpoint over one :class:`~repro.serve.engine.ServeEngine`.

    Usable as a long-running process (:func:`run_serve`, the ``repro
    serve`` CLI) or embedded in tests: ``start()`` runs the event loop on a
    background thread and ``stop()`` drains and joins it, mirroring the
    ``WorkerServer`` ergonomics of :mod:`repro.dist`.  ``port=0`` binds an
    ephemeral port; :attr:`address` reports the bound endpoint either way.

    ``pause_engine()``/``resume_engine()`` suspend the engine task between
    batches — queues then fill deterministically, which is how the
    backpressure tests force ``busy`` replies without racing the engine.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        n_nodes: int = 63,
        algorithm: Union[str, AlgorithmSpec] = "rotor-push",
        base_seed: int = 0,
        log_dir: Optional[str] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        announce: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if queue_limit <= 0:
            raise ServeError(f"queue_limit must be positive, got {queue_limit}")
        self.host = host
        self.port = port
        self.queue_limit = int(queue_limit)
        self.announce = announce
        self.metrics_registry = registry if registry is not None else default_registry()
        self.tracer = tracer if tracer is not None else default_tracer()
        # engine first (its probe build validates algorithm and n_nodes),
        # so a bad configuration never leaves a header-only log directory
        self.engine = ServeEngine(
            n_nodes=n_nodes,
            algorithm=algorithm,
            base_seed=base_seed,
        )
        if log_dir is not None:
            self.engine.log = IngestWriter(
                log_dir,
                {
                    "n_nodes": self.engine.n_nodes,
                    "algorithm": self.engine.algorithm.to_dict(),
                    "base_seed": self.engine.base_seed,
                },
                segment_bytes=segment_bytes,
                registry=self.metrics_registry,
            )
        reg = self.metrics_registry
        self._m_latency = reg.histogram(
            "repro_serve_latency_seconds",
            "Enqueue-to-reply latency of served batches.",
        )
        self._m_queue_wait = reg.histogram(
            "repro_serve_queue_wait_seconds",
            "Time a batch waits in its session queue before the engine pops it.",
        )
        self._m_queue_depth = reg.gauge(
            "repro_serve_queue_depth",
            "Pending batches per bound session.",
            labels=("source",),
        )
        self._m_sessions = reg.gauge(
            "repro_serve_sessions", "Sessions bound to a source."
        )
        self._m_busy = reg.counter(
            "repro_serve_busy_total",
            "Requests rejected with busy backpressure (queue full).",
        )
        self._m_batches = reg.counter(
            "repro_serve_batches_total", "Batches served to completion."
        )
        self._m_requests = reg.counter(
            "repro_serve_requests_total", "Destinations served."
        )
        self._sessions: Dict[int, _Session] = {}
        self._by_name: Dict[str, _Session] = {}
        self._connections: set = set()
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._started = time.monotonic()
        self.served_batches = 0
        # loop-owned primitives, created inside _main()
        self._work: Optional[asyncio.Event] = None
        self._resume: Optional[asyncio.Event] = None
        self._stop_requested: Optional[asyncio.Event] = None

    @property
    def address(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    # ------------------------------------------------------------ lifecycle

    async def _main(self, install_signal_handlers: bool = False) -> None:
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._resume = asyncio.Event()
        self._resume.set()
        self._stop_requested = asyncio.Event()
        if install_signal_handlers:
            import signal

            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self._stop_requested.set)
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.host, self.port = server.sockets[0].getsockname()[:2]
        self._started = time.monotonic()
        if self.announce:
            print(f"serve listening on {self.address}", flush=True)
        self._ready.set()
        engine_task = asyncio.create_task(self._engine_loop())
        try:
            await self._stop_requested.wait()
            # drain: no new connections, no new requests, engine empties
            # every session queue, then the ingest log is flushed and closed
            server.close()
            await server.wait_closed()
            self._stopping = True
            self._work.set()
            self._resume.set()
            await engine_task
        finally:
            engine_task.cancel()
            for writer in list(self._connections):
                writer.close()
            if self.engine.log is not None:
                self.engine.log.close()

    def start(self) -> "ServeServer":
        """Run the event loop on a daemon thread (test embedding)."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name=f"repro-serve-{self.port}",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServeError("serve server failed to start within 10s")
        return self

    def request_stop(self) -> None:
        """Ask the daemon to drain and exit (thread-safe, idempotent)."""
        loop = self._loop
        if loop is not None and self._stop_requested is not None:
            loop.call_soon_threadsafe(self._stop_requested.set)

    def stop(self) -> None:
        """Drain, shut down and join the background thread (idempotent)."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _threadsafe(self, fn) -> None:
        loop = self._loop
        if loop is None:
            raise ServeError("serve server is not running")
        done = threading.Event()

        def apply() -> None:
            fn()
            done.set()

        loop.call_soon_threadsafe(apply)
        if not done.wait(timeout=5.0):
            raise ServeError("serve server loop did not acknowledge within 5s")

    def pause_engine(self) -> None:
        """Suspend the engine between batches (queues fill, ``busy`` fires)."""
        self._threadsafe(self._resume.clear)

    def resume_engine(self) -> None:
        """Resume a paused engine."""
        self._threadsafe(self._resume.set)

    # ---------------------------------------------------------- engine task

    def _session_order(self) -> List[_Session]:
        return [self._sessions[source_id] for source_id in sorted(self._sessions)]

    async def _engine_loop(self) -> None:
        """The single consumer: round-robin sessions in source-id order."""
        while True:
            await self._work.wait()
            await self._resume.wait()
            progressed = False
            for session in self._session_order():
                if not self._resume.is_set():
                    break
                if not session.queue:
                    continue
                reply_id, destinations, enqueued_at, seq = session.queue.popleft()
                session.in_flight = True
                self._m_queue_wait.observe(time.perf_counter() - enqueued_at)
                try:
                    outcome = self.engine.submit(session.name, destinations)
                finally:
                    session.in_flight = False
                self.served_batches += 1
                latency = time.perf_counter() - enqueued_at
                self._m_latency.observe(latency)
                self._m_batches.inc()
                self._m_requests.inc(len(destinations))
                self._m_queue_depth.set(len(session.queue), source=session.name)
                self.tracer.record(
                    "serve.batch",
                    span_id("serve", session.name, seq),
                    start=time.time() - latency,
                    duration=latency,
                    source=session.name,
                    n=len(destinations),
                )
                progressed = True
                writer = session.writer
                if writer is not None and not writer.is_closing():
                    try:
                        await write_frame(
                            writer,
                            {
                                "type": "reply",
                                "id": reply_id,
                                "source": session.name,
                                "queue_depth": len(session.queue),
                                **outcome,
                            },
                        )
                    except (ConnectionError, OSError):
                        session.writer = None
            if not progressed:
                if self._stopping:
                    self.engine.flush()
                    return
                self._work.clear()

    # ---------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        session: Optional[_Session] = None
        try:
            hello = await read_frame(reader)
            if (
                hello.get("type") != "hello"
                or hello.get("protocol") != PROTOCOL_VERSION
            ):
                await write_frame(
                    writer,
                    {"type": "error", "error": f"protocol mismatch: {hello!r}"},
                )
                return
            await write_frame(
                writer,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "n_nodes": self.engine.n_nodes,
                    "algorithm": self.engine.algorithm.to_dict(),
                    "queue_limit": self.queue_limit,
                },
            )
            while True:
                try:
                    message = await read_frame(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ):
                    return
                result = await self._dispatch(message, writer, session)
                if result is _CLOSED:
                    # keep ``session`` pointing at the _Session so the
                    # cleanup below releases the source for rebinding
                    return
                session = result
        except ProtocolError as error:
            try:
                await write_frame(writer, {"type": "error", "error": str(error)})
            except (ConnectionError, OSError):
                pass
        finally:
            if isinstance(session, _Session) and session.writer is writer:
                session.writer = None
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self,
        message: Dict[str, object],
        writer: asyncio.StreamWriter,
        session: Optional[_Session],
    ):
        kind = message.get("type")
        if kind == "open_session":
            return await self._open_session(message, writer, session)
        if kind in ("request", "request_batch"):
            await self._enqueue(message, writer, session)
            return session
        if kind == "stats":
            await write_frame(writer, self._stats_frame())
            return session
        if kind == "metrics":
            await write_frame(
                writer,
                metrics_frame(
                    self.metrics_registry,
                    self.tracer,
                    include_trace=bool(message.get("trace")),
                ),
            )
            return session
        if kind == "drain":
            await self._drain(writer, session)
            return session
        if kind == "close":
            await write_frame(writer, {"type": "closed"})
            return _CLOSED
        await write_frame(
            writer, {"type": "error", "error": f"unexpected message {kind!r}"}
        )
        return session

    async def _open_session(
        self,
        message: Dict[str, object],
        writer: asyncio.StreamWriter,
        session: Optional[_Session],
    ):
        if session is not None:
            await write_frame(
                writer,
                {
                    "type": "error",
                    "error": f"connection already serves source {session.name!r}",
                },
            )
            return session
        if self._stopping:
            await write_frame(
                writer, {"type": "error", "error": "server is draining"}
            )
            return None
        source = message.get("source")
        try:
            state = self.engine.bind(source)
        except ServeError as error:
            await write_frame(writer, {"type": "error", "error": str(error)})
            return None
        existing = self._by_name.get(state.name)
        if existing is not None and existing.writer is not None:
            await write_frame(
                writer,
                {
                    "type": "error",
                    "error": f"source {state.name!r} is already bound by an "
                    "active session",
                },
            )
            return None
        if existing is None:
            existing = _Session(state.name, state.source_id)
            self._sessions[state.source_id] = existing
            self._by_name[state.name] = existing
            self._m_sessions.set(len(self._sessions))
        existing.writer = writer
        await write_frame(
            writer,
            {
                "type": "session",
                "source": state.name,
                "source_id": state.source_id,
                "queue_limit": self.queue_limit,
            },
        )
        return existing

    async def _enqueue(
        self,
        message: Dict[str, object],
        writer: asyncio.StreamWriter,
        session: Optional[_Session],
    ) -> None:
        reply_id = message.get("id")
        if session is None:
            await write_frame(
                writer,
                {
                    "type": "error",
                    "id": reply_id,
                    "error": "open_session before sending requests",
                },
            )
            return
        if self._stopping:
            await write_frame(
                writer,
                {"type": "error", "id": reply_id, "error": "server is draining"},
            )
            return
        if message["type"] == "request":
            raw = [message.get("destination")]
        else:
            raw = message.get("destinations")
        if not isinstance(raw, list) or not raw:
            await write_frame(
                writer,
                {
                    "type": "error",
                    "id": reply_id,
                    "error": "request_batch needs a non-empty destinations list",
                },
            )
            return
        destinations: List[int] = []
        for value in raw:
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or not 0 <= value < self.engine.n_nodes
            ):
                await write_frame(
                    writer,
                    {
                        "type": "error",
                        "id": reply_id,
                        "error": f"destination {value!r} outside the "
                        f"{self.engine.n_nodes}-node tree",
                    },
                )
                return
            destinations.append(value)
        if len(session.queue) >= self.queue_limit:
            self._m_busy.inc()
            await write_frame(
                writer,
                {
                    "type": "busy",
                    "id": reply_id,
                    "queue_depth": len(session.queue),
                    "queue_limit": self.queue_limit,
                },
            )
            return
        seq = session.seq
        session.seq = seq + 1
        session.queue.append((reply_id, destinations, time.perf_counter(), seq))
        self._m_queue_depth.set(len(session.queue), source=session.name)
        self._work.set()

    async def _drain(
        self, writer: asyncio.StreamWriter, session: Optional[_Session]
    ) -> None:
        while session is not None and session.pending:
            await asyncio.sleep(0.005)
        self.engine.flush()
        await write_frame(
            writer,
            {
                "type": "drained",
                "source": None if session is None else session.name,
                "n_requests": self.engine.n_requests,
            },
        )

    def _stats_frame(self) -> Dict[str, object]:
        uptime = max(time.monotonic() - self._started, 1e-9)
        table = self.engine.cost_table()
        return {
            "type": "stats",
            "uptime": uptime,
            "req_per_s": self.engine.n_requests / uptime,
            "served_batches": self.served_batches,
            "queue_limit": self.queue_limit,
            "queues": {
                session.name: session.pending
                for session in self._session_order()
            },
            "stopping": self._stopping,
            "engine": self.engine.stats(),
            "cost_table": {
                "name": table.name,
                "columns": list(table.columns),
                "rows": [dict(row) for row in table.rows],
            },
        }


#: Sentinel returned by ``_dispatch`` when the client said ``close``.
_CLOSED = object()


def run_serve(
    listen: str,
    n_nodes: int,
    algorithm: str,
    base_seed: int = 0,
    log_dir: Optional[str] = None,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    metrics: Optional[str] = None,
    metrics_snapshot_interval: float = 10.0,
) -> int:
    """Run the live serve daemon until signalled (the ``repro serve`` body).

    Prints ``serve listening on tcp://host:port`` once the listener is up
    (launch scripts wait for it, like the worker daemon's line).  SIGTERM
    and SIGINT drain: queued batches finish serving, the ingest log is
    flushed and closed, the final cost table and a ``serve drained`` line
    are printed, and the process exits 0.

    ``metrics`` (``tcp://HOST:PORT``) mounts the Prometheus/JSON metrics
    endpoint; with a ``log_dir``, a ``metrics.jsonl`` snapshot stream is
    appended next to the ingest segments every ``metrics_snapshot_interval``
    seconds (the replay reader ignores it — it only globs segments).
    """
    host, port = parse_listen_address(listen)
    server = ServeServer(
        host=host,
        port=port,
        n_nodes=n_nodes,
        algorithm=algorithm,
        base_seed=base_seed,
        log_dir=log_dir,
        queue_limit=queue_limit,
        announce=True,
    )
    endpoint = start_metrics_server(
        metrics, server.metrics_registry, server.tracer
    )
    if endpoint is not None:
        print(f"metrics listening on {endpoint.url}", flush=True)
    snapshots = None
    if log_dir is not None and metrics_snapshot_interval:
        snapshots = MetricsSnapshotWriter(
            os.path.join(log_dir, "metrics.jsonl"),
            interval=metrics_snapshot_interval,
            registry=server.metrics_registry,
        ).start()
    try:
        asyncio.run(server._main(install_signal_handlers=True))
    except KeyboardInterrupt:
        pass
    finally:
        if snapshots is not None:
            snapshots.stop()
        if endpoint is not None:
            endpoint.stop()
    print(server.engine.cost_table().format_text(), flush=True)
    print(
        f"serve drained ({server.engine.n_requests} requests, "
        f"{len(server.engine.sources)} sources, "
        f"{server.served_batches} batches)",
        flush=True,
    )
    return 0
