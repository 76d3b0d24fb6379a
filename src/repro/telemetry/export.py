"""Export surfaces: the metrics HTTP endpoint, protocol frame, and scraper.

Three ways to get metrics out of a process, all rendering the same
:meth:`MetricsRegistry.snapshot`:

* :class:`MetricsHTTPServer` — a stdlib ``ThreadingHTTPServer`` mounted on
  either daemon via ``--metrics tcp://HOST:PORT``, serving Prometheus text
  at ``/metrics``, the raw snapshot at ``/metrics.json``, and the span ring
  buffer at ``/trace.json``.  It runs entirely on its own threads so the
  serve daemon's asyncio loop and the worker's session threads are never
  blocked by a scrape.
* :func:`metrics_frame` — the typed ``metrics`` reply frame both daemon
  protocols answer with over the shared length-prefixed JSON framing.
* :func:`scrape` — the client side used by ``repro metrics <addr>``:
  ``http://`` addresses GET the endpoint, ``tcp://`` addresses speak the
  daemons' hello→welcome handshake and request a ``metrics`` frame.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.dist.framing import (
    PROTOCOL_VERSION,
    ProtocolError,
    parse_listen_address,
    recv_frame,
    send_frame,
)
from repro.exceptions import ExperimentError
from repro.telemetry.registry import (
    MetricsRegistry,
    default_registry,
    render_prometheus,
)
from repro.telemetry.trace import Tracer, default_tracer

__all__ = [
    "MetricsHTTPServer",
    "metrics_frame",
    "scrape",
    "start_metrics_server",
]


def metrics_frame(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    *,
    include_trace: bool = False,
) -> Dict[str, object]:
    """Build the typed ``metrics`` reply frame for the daemon protocols."""
    registry = registry if registry is not None else default_registry()
    frame: Dict[str, object] = {"type": "metrics", "metrics": registry.snapshot()}
    if include_trace:
        tracer = tracer if tracer is not None else default_tracer()
        frame["trace"] = tracer.dump()
    return frame


class _MetricsHandler(BaseHTTPRequestHandler):
    # the server instance carries .registry / .tracer (set by MetricsHTTPServer)
    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = render_prometheus(self.server.registry.snapshot()).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.json":
            body = json.dumps(self.server.registry.snapshot(), sort_keys=True).encode(
                "utf-8"
            )
            content_type = "application/json"
        elif path == "/trace.json":
            body = json.dumps(self.server.tracer.dump()).encode("utf-8")
            content_type = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics, /metrics.json, /trace.json)")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        # scrapes are high-frequency background traffic; stay quiet
        pass


class MetricsHTTPServer:
    """The daemon-side metrics endpoint (Prometheus text + JSON + traces).

    Binds eagerly in ``__init__`` (so a bad ``--metrics`` address fails at
    startup, not at first scrape) and serves on a daemon thread after
    :meth:`start`.  ``port`` reports the bound port, which makes
    ``tcp://127.0.0.1:0`` usable in tests.
    """

    def __init__(
        self,
        listen: str,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        host, port = parse_listen_address(listen)
        self.registry = registry if registry is not None else default_registry()
        self.tracer = tracer if tracer is not None else default_tracer()
        try:
            self._server = ThreadingHTTPServer((host, port), _MetricsHandler)
        except OSError as error:
            raise ExperimentError(
                f"cannot bind metrics endpoint {listen!r}: {error}"
            ) from error
        self._server.daemon_threads = True
        self._server.registry = self.registry
        self._server.tracer = self.tracer
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsHTTPServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-metrics-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()


def start_metrics_server(
    listen: Optional[str],
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Optional[MetricsHTTPServer]:
    """Start a metrics endpoint if ``listen`` is set (daemon convenience)."""
    if not listen:
        return None
    return MetricsHTTPServer(listen, registry, tracer).start()


# ----------------------------------------------------------------- scraping


def scrape(
    address: str,
    *,
    include_trace: bool = False,
    timeout: float = 10.0,
) -> Dict[str, object]:
    """Scrape metrics from either export surface.

    ``http://HOST:PORT[/path]`` GETs the metrics HTTP endpoint
    (``/metrics.json``, plus ``/trace.json`` when ``include_trace``);
    ``tcp://HOST:PORT`` connects to a daemon's main protocol port, performs
    the shared hello→welcome handshake, and requests a ``metrics`` frame.
    Returns ``{"metrics": <snapshot>}`` plus ``"trace"`` when requested.
    """
    try:
        if address.startswith("http://") or address.startswith("https://"):
            return _scrape_http(address, include_trace=include_trace, timeout=timeout)
        if address.startswith("tcp://"):
            return _scrape_frame(address, include_trace=include_trace, timeout=timeout)
    except OSError as error:  # refused, timed out, unreachable, DNS...
        raise ExperimentError(f"cannot scrape {address!r}: {error}") from error
    raise ExperimentError(
        f"metrics address must start with http:// or tcp://, got {address!r}"
    )


def _scrape_http(
    address: str, *, include_trace: bool, timeout: float
) -> Dict[str, object]:
    base = address.rstrip("/")
    for suffix in ("/metrics.json", "/metrics", "/trace.json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    with urllib.request.urlopen(base + "/metrics.json", timeout=timeout) as response:
        snapshot = json.loads(response.read().decode("utf-8"))
    result: Dict[str, object] = {"metrics": snapshot}
    if include_trace:
        with urllib.request.urlopen(base + "/trace.json", timeout=timeout) as response:
            result["trace"] = json.loads(response.read().decode("utf-8"))
    return result


def _split_tcp(address: str) -> Tuple[str, int]:
    # reuse the daemon listen-address grammar for scrape targets
    return parse_listen_address(address.split("?", 1)[0])


def _scrape_frame(
    address: str, *, include_trace: bool, timeout: float
) -> Dict[str, object]:
    host, port = _split_tcp(address)
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        send_frame(
            sock,
            {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "client": "repro-metrics",
            },
        )
        welcome = recv_frame(sock)
        if welcome.get("type") != "welcome":
            raise ProtocolError(
                f"daemon at {address} answered {welcome.get('type')!r}, not welcome"
            )
        request: Dict[str, object] = {"type": "metrics"}
        if include_trace:
            request["trace"] = True
        send_frame(sock, request)
        reply = recv_frame(sock)
    if reply.get("type") == "error":
        raise ExperimentError(
            f"daemon at {address} cannot serve metrics: {reply.get('error')}"
        )
    if reply.get("type") != "metrics":
        raise ProtocolError(
            f"daemon at {address} answered {reply.get('type')!r}, not metrics"
        )
    result = {"metrics": reply.get("metrics", {})}
    if "trace" in reply:
        result["trace"] = reply["trace"]
    return result
