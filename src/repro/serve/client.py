"""The bundled live-serve client: a sync driver for tests, CI and benches.

:class:`ServeClient` is a deliberately simple blocking client — one
connection, one session, one outstanding message — built on the same
framing as the server (:mod:`repro.dist.framing`): frames are sent whole
with Nagle's algorithm off, and replies come through one
:class:`~repro.dist.framing.FrameDecoder`, so a reply usually costs one
``recv``.  ``busy`` replies are handled by bounded retry with backoff: the
server never buffers past its queue limit, so a fast producer is throttled
here, client-side.

Run as a module it drives concurrent load (one thread + connection per
source) and prints the live cost table, which CI diffs against ``repro
replay`` output::

    python -m repro.serve.client --address tcp://127.0.0.1:PORT \
        --sources alpha,beta --requests 200 --batch 8 --print-table
"""

from __future__ import annotations

import argparse
import random
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.dist.framing import (
    PROTOCOL_VERSION,
    FrameDecoder,
    parse_listen_address,
    send_frame,
)
from repro.serve.engine import ServeError
from repro.sim.results import ResultTable

__all__ = ["ServeClient", "drive_load", "main"]


class ServeClient:
    """A blocking client for one live-serve session."""

    def __init__(
        self,
        address: str,
        timeout: float = 30.0,
        retry_interval: float = 0.002,
    ) -> None:
        host, port = parse_listen_address(address)
        self.address = address
        self.retry_interval = retry_interval
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder()
        self._next_id = 0
        self.source: Optional[str] = None
        #: ``busy`` replies absorbed by retry (introspected by tests).
        self.busy_count = 0
        send_frame(self._sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
        welcome = self._decoder.recv(self._sock)
        if welcome.get("type") != "welcome":
            raise ServeError(f"serve handshake failed: {welcome!r}")
        #: Server configuration from the handshake (n_nodes, algorithm, ...).
        self.server = welcome

    @property
    def n_nodes(self) -> int:
        return int(self.server["n_nodes"])

    def _rpc(self, message: Dict[str, object]) -> Dict[str, object]:
        send_frame(self._sock, message)
        reply = self._decoder.recv(self._sock)
        if reply.get("type") == "error":
            raise ServeError(f"server rejected {message.get('type')}: {reply.get('error')}")
        return reply

    def open(self, source: str) -> Dict[str, object]:
        """Bind this connection to ``source``; returns the session frame."""
        session = self._rpc({"type": "open_session", "source": source})
        self.source = source
        return session

    def request_batch(
        self, destinations: Sequence[int], block: bool = True
    ) -> Dict[str, object]:
        """Send one batch; retry through ``busy`` until served (``block``).

        With ``block=False`` a ``busy`` reply is returned as-is, so callers
        can observe backpressure directly.
        """
        destinations = list(destinations)
        return self._request("request_batch", "destinations", destinations, block)

    def request(self, destination: int, block: bool = True) -> Dict[str, object]:
        """Send one single-destination request."""
        return self._request("request", "destination", destination, block)

    def _request(
        self, kind: str, key: str, value: object, block: bool
    ) -> Dict[str, object]:
        self._next_id += 1
        message = {"type": kind, "id": self._next_id, key: value}
        delay = self.retry_interval
        while True:
            reply = self._rpc(message)
            if reply.get("type") != "busy":
                return reply
            self.busy_count += 1
            if not block:
                return reply
            time.sleep(delay)
            delay = min(delay * 2, 0.1)

    def stats(self) -> Dict[str, object]:
        """Fetch the live stats frame (works with or without a session)."""
        return self._rpc({"type": "stats"})

    def cost_table(self) -> ResultTable:
        """Fetch the live per-source cost table as a ResultTable."""
        document = self.stats()["cost_table"]
        table = ResultTable(
            name=document["name"], columns=list(document["columns"])
        )
        for row in document["rows"]:
            table.add_row(**row)
        return table

    def drain(self) -> Dict[str, object]:
        """Block until this session's queue is fully served and log-flushed."""
        return self._rpc({"type": "drain"})

    def close(self) -> None:
        """Politely end the session and close the connection (idempotent)."""
        if self._sock is None:
            return
        try:
            self._rpc({"type": "close"})
        except (ConnectionError, OSError, ServeError):
            pass
        try:
            self._sock.close()
        finally:
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def drive_load(
    address: str,
    sources: Sequence[str],
    n_requests: int,
    batch_size: int = 8,
    seed: int = 0,
) -> Dict[str, Dict[str, int]]:
    """Drive ``n_requests`` per source concurrently (one thread per source).

    Destinations are drawn from a per-source seeded RNG, uniform over the
    server's tree.  Returns client-side totals per source, accumulated from
    the server's ``reply`` frames — the cross-check the CI smoke and the
    tests compare against the ``stats`` frame and the replay table.
    """
    totals: Dict[str, Dict[str, int]] = {}
    errors: List[BaseException] = []

    def drive(index: int, source: str) -> None:
        try:
            with ServeClient(address) as client:
                client.open(source)
                rng = random.Random(seed * 1_000_003 + index)
                n_nodes = client.n_nodes
                accumulated = {"n": 0, "access_cost": 0, "adjustment_cost": 0}
                remaining = n_requests
                while remaining:
                    size = min(batch_size, remaining)
                    batch = [rng.randrange(n_nodes) for _ in range(size)]
                    reply = client.request_batch(batch)
                    for key in accumulated:
                        accumulated[key] += int(reply[key])
                    remaining -= size
                client.drain()
                totals[source] = accumulated
        except BaseException as error:  # noqa: BLE001 - re-raised in the caller
            errors.append(error)

    threads = [
        threading.Thread(target=drive, args=(index, source), daemon=True)
        for index, source in enumerate(sources)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return totals


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="Drive concurrent load at a repro serve daemon.",
    )
    parser.add_argument("--address", required=True, help="tcp://HOST:PORT")
    parser.add_argument(
        "--sources",
        default="alpha,beta",
        help="comma-separated source names, one concurrent session each",
    )
    parser.add_argument("--requests", type=int, default=200, help="requests per source")
    parser.add_argument("--batch", type=int, default=8, help="destinations per batch")
    parser.add_argument("--seed", type=int, default=0, help="destination RNG seed")
    parser.add_argument(
        "--print-table",
        action="store_true",
        help="print the live cost table (diffable against `repro replay`)",
    )
    args = parser.parse_args(argv)
    sources = [name for name in args.sources.split(",") if name]
    totals = drive_load(
        args.address,
        sources,
        n_requests=args.requests,
        batch_size=args.batch,
        seed=args.seed,
    )
    with ServeClient(args.address) as client:
        stats = client.stats()
        table = client.cost_table() if args.print_table else None
    # the reply-accumulated totals and the server's stats must agree exactly
    by_source = {row["source"]: row for row in stats["engine"]["sources"]}
    for source, accumulated in totals.items():
        row = by_source[source]
        if (
            row["n_requests"] != accumulated["n"]
            or row["total_access_cost"] != accumulated["access_cost"]
            or row["total_adjustment_cost"] != accumulated["adjustment_cost"]
        ):
            raise ServeError(
                f"client totals diverge from server stats for {source!r}: "
                f"{accumulated} != {row}"
            )
    if table is not None:
        # same rendering (trailing blank line included) as `repro replay`,
        # so CI can diff the two outputs directly
        print(table.format_text())
        print("", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
