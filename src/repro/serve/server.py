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

Each connection is an ``asyncio.BufferedProtocol``: the transport reads
into one reused 64 KiB buffer per connection, ``buffer_updated`` feeds one
:class:`~repro.dist.framing.FrameDecoder` and handles every complete frame
at once, in arrival order (clients may pipeline), and replies go out with
``transport.write``.  Backpressure is bounded both ways.  Each session
queues at most ``queue_limit`` batches: a ``request``/``request_batch``
arriving with the queue full is answered *immediately* with ``busy``
(carrying the depth and limit) and is neither queued, logged nor served.
A peer that leaves its replies unread cannot grow the server's memory:
past the write buffer's high-water mark (``pause_writing``) its connection
is neither read nor handled until the buffer drains.  A ``drain`` holds the
later frames of its connection until its session's queue is empty, and is
answered as soon as the engine serves the last batch.

The engine is the only consumer of the session queues.  A sweep serves one
batch per session in source-id order.  A read that queued work runs one
sweep before it returns, so a lone batch is answered in the read callback
that brought it; while work remains, a loop callback (``call_soon``) runs
the next sweep.  Sweeps never nest: a read handled inside a sweep (a
``drain`` answered, its held frames released) leaves its work to the
callback.  So the interleaving of sessions is deterministic given arrival
order, and per-source costs are replayable regardless of it (trees are
independent).  Each batch's ingest record is appended and flushed before
the batch is served and before its reply is written.

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
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.algorithms.registry import AlgorithmSpec
from repro.dist.framing import (
    READ_BYTES,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    parse_listen_address,
)
from repro.dist.protocol import PROTOCOL_VERSION
from repro.serve.engine import CheckedBatch, ServeEngine, ServeError
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

    __slots__ = ("name", "queue", "connection", "seq", "set_depth")

    def __init__(self, name: str, set_depth: Callable[[float], None]) -> None:
        self.name = name
        #: Pending (reply id, destinations, enqueued-at, sequence) batches,
        #: engine-consumed FIFO.  The enqueue timestamp feeds the
        #: enqueue-to-reply latency histogram; the per-session sequence
        #: index derives the deterministic span ID.
        self.queue: Deque[Tuple[object, CheckedBatch, float, int]] = deque()
        #: The connection bound to this source (None when disconnected).
        self.connection: Optional[_Connection] = None
        self.seq = 0
        #: The queue-depth gauge's row of this source.
        self.set_depth = set_depth


class _Connection(asyncio.BufferedProtocol):
    """One client connection: frames in, handled in order, replies out."""

    def __init__(self, server: "ServeServer") -> None:
        self.server = server
        self.decoder = FrameDecoder()
        #: The one buffer every read of this connection lands in.
        self.read_buffer = memoryview(bytearray(READ_BYTES))
        self.transport: Optional[asyncio.Transport] = None
        self.session: Optional[_Session] = None
        self.greeted = False
        #: Later frames are held, and the socket not read, while a ``drain``
        #: waits for the session to empty or the peer leaves its replies
        #: unread (the write buffer is over its high-water mark).
        self.draining = self.write_paused = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)
        self._release()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.decoder.feed(self.read_buffer[:nbytes])
        self.handle_frames()

    def pause_writing(self) -> None:
        self.write_paused = True
        self.update_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.update_reading()

    def update_reading(self) -> None:
        """Stop reading while frames are held; else read and handle them."""
        if self.closing:
            return
        if self.draining or self.write_paused:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()
            self.handle_frames()

    def handle_frames(self) -> None:
        """Dispatch complete frames in order until none is left or they are
        held; then start the engine on whatever they queued."""
        server = self.server
        queued = server._queued
        try:
            while not (self.draining or self.write_paused or self.closing):
                message = self.decoder.next_message()
                if message is None:
                    break
                server._dispatch(self, message)
        except ProtocolError as error:
            self.send_error(str(error))
            self.close()
        if server._queued > queued:
            try:
                server._run_engine()
            except Exception as error:
                # a batch that failed to serve is no fault of this
                # connection: report it as a failed loop callback is
                server._loop.call_exception_handler(
                    {"message": "serve engine sweep failed", "exception": error}
                )

    @property
    def closing(self) -> bool:
        return self.transport is None or self.transport.is_closing()

    def send(self, message: Dict[str, object]) -> None:
        if not self.closing:
            self.transport.write(encode_frame(message))

    def send_error(self, error: str, **fields: object) -> None:
        self.send({"type": "error", **fields, "error": error})

    def close(self) -> None:
        """Release the session at once, then close after pending writes."""
        self._release()
        if not self.closing:
            self.transport.close()

    def _release(self) -> None:
        if self.session is not None and self.session.connection is self:
            self.session.connection = None


class ServeServer:
    """A live traffic endpoint over one :class:`~repro.serve.engine.ServeEngine`.

    Usable as a long-running process (:func:`run_serve`, the ``repro
    serve`` CLI) or embedded in tests: ``start()`` runs the event loop on a
    background thread and ``stop()`` drains and joins it, mirroring the
    ``WorkerServer`` ergonomics of :mod:`repro.dist`.  ``port=0`` binds an
    ephemeral port; :attr:`address` reports the bound endpoint either way.

    ``pause_engine()``/``resume_engine()`` suspend the engine between
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
        # the rows every batch writes, resolved once (a session binds its
        # queue-depth row when it is created)
        reg = self.metrics_registry
        self._observe_latency = reg.histogram(
            "repro_serve_latency_seconds",
            "Enqueue-to-reply latency of served batches.",
        ).bind()
        self._observe_queue_wait = reg.histogram(
            "repro_serve_queue_wait_seconds",
            "Time a batch waits in its session queue before the engine pops it.",
        ).bind()
        self._m_queue_depth = reg.gauge(
            "repro_serve_queue_depth",
            "Pending batches per bound session.",
            labels=("source",),
        )
        self._set_sessions = reg.gauge(
            "repro_serve_sessions", "Sessions bound to a source."
        ).bind()
        self._add_busy = reg.counter(
            "repro_serve_busy_total",
            "Requests rejected with busy backpressure (queue full).",
        ).bind()
        self._add_batches = reg.counter(
            "repro_serve_batches_total", "Batches served to completion."
        ).bind()
        self._add_requests = reg.counter(
            "repro_serve_requests_total", "Destinations served."
        ).bind()
        #: Bound sessions in source-id order (ids are assigned in bind order).
        self._sessions: List[_Session] = []
        self._by_name: Dict[str, _Session] = {}
        self._connections: set = set()
        self._queued = 0
        self._stopping = self._paused = False
        self._engine_scheduled = self._sweeping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._started = time.monotonic()
        self.served_batches = 0
        # created inside _main(), on the loop
        self._stop_requested: Optional[asyncio.Event] = None

    @property
    def address(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    # ------------------------------------------------------------ lifecycle

    async def _main(self, install_signal_handlers: bool = False) -> None:
        loop = self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        if install_signal_handlers:
            import signal

            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self._stop_requested.set)
        server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.host, self.port = server.sockets[0].getsockname()[:2]
        self._started = time.monotonic()
        if self.announce:
            print(f"serve listening on {self.address}", flush=True)
        self._ready.set()
        try:
            await self._stop_requested.wait()
            # drain: no new connections, no new requests, engine empties
            # every session queue, then the ingest log is flushed and closed
            server.close()
            self._stopping, self._paused = True, False
            while self._queued:
                self._sweep()
            self.engine.flush()
        finally:
            server.close()
            for connection in list(self._connections):
                connection.close()
            if self.engine.log is not None:
                self.engine.log.close()
            # one loop pass lets closed connections flush and go; a peer that
            # still leaves replies unread loses them
            await asyncio.sleep(0)
            for connection in list(self._connections):
                connection.transport.abort()

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

    def pause_engine(self) -> None:
        """Suspend the engine between batches (queues fill, ``busy`` fires)."""
        self._set_paused(True)

    def resume_engine(self) -> None:
        """Resume a paused engine."""
        self._set_paused(False)

    def _set_paused(self, paused: bool) -> None:
        if self._loop is None:
            raise ServeError("serve server is not running")

        async def apply() -> None:
            self._paused = paused
            if not paused:
                self._schedule_engine()

        asyncio.run_coroutine_threadsafe(apply(), self._loop).result(timeout=5.0)

    # --------------------------------------------------------------- engine

    def _schedule_engine(self) -> None:
        if not self._engine_scheduled:
            self._engine_scheduled = True
            self._loop.call_soon(self._engine_callback)

    def _engine_callback(self) -> None:
        self._engine_scheduled = False
        self._run_engine()

    def _run_engine(self) -> None:
        """One sweep now, and another later (a loop callback) while work
        remains, also when the sweep raised; nothing while paused or inside
        a sweep already, whose own end schedules what is left."""
        if self._paused or self._sweeping:
            return
        self._sweeping = True
        try:
            self._sweep()
        finally:
            self._sweeping = False
            if self._queued:
                self._schedule_engine()

    def _sweep(self) -> None:
        """Serve one queued batch per session, in source-id order."""
        for session in self._sessions:
            if session.queue:
                self._serve_one(session)

    def _serve_one(self, session: _Session) -> None:
        reply_id, destinations, enqueued_at, seq = session.queue.popleft()
        self._queued -= 1
        self._observe_queue_wait(time.perf_counter() - enqueued_at)
        outcome = self.engine.submit(session.name, destinations)
        self.served_batches += 1
        latency = time.perf_counter() - enqueued_at
        self._observe_latency(latency)
        self._add_batches()
        self._add_requests(len(destinations))
        session.set_depth(len(session.queue))
        self.tracer.record(
            "serve.batch",
            span_id("serve", session.name, seq),
            start=time.time() - latency,
            duration=latency,
            source=session.name,
            n=len(destinations),
        )
        connection = session.connection
        if connection is not None:
            connection.send(
                {
                    "type": "reply",
                    "id": reply_id,
                    "source": session.name,
                    "queue_depth": len(session.queue),
                    **outcome,
                }
            )
            if connection.draining and not session.queue:
                connection.draining = False
                self._send_drained(connection)
                connection.update_reading()

    # ------------------------------------------------------------- messages

    def _dispatch(self, connection: _Connection, message: Dict[str, object]) -> None:
        kind = message.get("type")
        if not connection.greeted:
            if kind != "hello" or message.get("protocol") != PROTOCOL_VERSION:
                connection.send_error(f"protocol mismatch: {message!r}")
                connection.close()
                return
            connection.greeted = True
            connection.send(
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "n_nodes": self.engine.n_nodes,
                    "algorithm": self.engine.algorithm.to_dict(),
                    "queue_limit": self.queue_limit,
                }
            )
        elif kind in ("request", "request_batch"):
            self._enqueue(connection, message)
        elif kind == "open_session":
            self._open_session(connection, message)
        elif kind == "stats":
            connection.send(self._stats_frame())
        elif kind == "metrics":
            connection.send(
                metrics_frame(
                    self.metrics_registry,
                    self.tracer,
                    include_trace=bool(message.get("trace")),
                )
            )
        elif kind == "drain":
            session = connection.session
            if session is not None and session.queue:
                connection.draining = True
                connection.update_reading()
            else:
                self._send_drained(connection)
        elif kind == "close":
            connection.send({"type": "closed"})
            connection.close()
        else:
            connection.send_error(f"unexpected message {kind!r}")

    def _open_session(
        self, connection: _Connection, message: Dict[str, object]
    ) -> None:
        if connection.session is not None:
            bound = connection.session.name
            return connection.send_error(f"connection already serves source {bound!r}")
        if self._stopping:
            return connection.send_error("server is draining")
        try:
            state = self.engine.bind(message.get("source"))
        except ServeError as error:
            return connection.send_error(str(error))
        session = self._by_name.get(state.name)
        if session is not None and session.connection is not None:
            return connection.send_error(
                f"source {state.name!r} is already bound by an active session"
            )
        if session is None:
            session = _Session(
                state.name, self._m_queue_depth.bind(source=state.name)
            )
            self._sessions.append(session)
            self._by_name[state.name] = session
            self._set_sessions(len(self._sessions))
        session.connection = connection
        connection.session = session
        connection.send(
            {
                "type": "session",
                "source": state.name,
                "source_id": state.source_id,
                "queue_limit": self.queue_limit,
            }
        )

    def _enqueue(self, connection: _Connection, message: Dict[str, object]) -> None:
        reply_id = message.get("id")
        session = connection.session
        if session is None:
            return connection.send_error(
                "open_session before sending requests", id=reply_id
            )
        if self._stopping:
            return connection.send_error("server is draining", id=reply_id)
        if message["type"] == "request":
            raw = [message.get("destination")]
        else:
            raw = message.get("destinations")
        if not isinstance(raw, list) or not raw:
            return connection.send_error(
                "request_batch needs a non-empty destinations list", id=reply_id
            )
        try:
            destinations = self.engine.check(raw)
        except ServeError as error:
            return connection.send_error(str(error), id=reply_id)
        queue = session.queue
        if len(queue) >= self.queue_limit:
            self._add_busy()
            connection.send(
                {
                    "type": "busy",
                    "id": reply_id,
                    "queue_depth": len(queue),
                    "queue_limit": self.queue_limit,
                }
            )
            return
        seq = session.seq
        session.seq = seq + 1
        queue.append((reply_id, destinations, time.perf_counter(), seq))
        self._queued += 1
        session.set_depth(len(queue))

    def _send_drained(self, connection: _Connection) -> None:
        self.engine.flush()
        session = connection.session
        connection.send(
            {
                "type": "drained",
                "source": None if session is None else session.name,
                "n_requests": self.engine.n_requests,
            }
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
            "queues": {session.name: len(session.queue) for session in self._sessions},
            "stopping": self._stopping,
            "engine": self.engine.stats(),
            "cost_table": {
                "name": table.name,
                "columns": list(table.columns),
                "rows": [dict(row) for row in table.rows],
            },
        }


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
