"""Load generator for the live_serve workload, run as its own process.

Opens two sessions (sources ``src0`` and ``src1``) to a live
``repro`` serve endpoint with the bundled ``ServeClient``, then obeys one
command per line on stdin and answers each with one JSON line on stdout:

``closed N``
    Closed loop: every connection sends N batches back to back, each after
    the previous reply.  Measures capacity.  The reply carries the reference
    slices this process sampled meanwhile.
``open N INTERVAL``
    Open loop: connection ``c`` sends batch ``k`` when it is due, at
    ``start + (k + c / connections) * INTERVAL`` seconds, or at once if it is
    already late.  Latency is timed from when the batch was due, so a stall
    also counts against the batches queued behind it; lateness is how late
    the batch was sent.
``stop``
    Drain every session, report reply-accumulated totals per source, exit.

Destinations are uniform over the tree and drawn from ``--seed``.  Busy
replies are retried inside ``ServeClient.request_batch`` and so count inside
the latency; the reply reports how many there were.

Run from the root of a checkout::

    python3 perfbench/loadgen.py --address tcp://127.0.0.1:PORT --seed 0
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calib import SAMPLE_PERIOD_S, time_slice  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.engine import ServeError  # noqa: E402

BATCH = 16
CONNECTIONS = 2
#: Pre-drawn batches per connection, cycled; drawing per batch would put
#: the client's RNG cost on the machine the server shares.
POOL = 2_048


class Connection:
    def __init__(self, address: str, index: int, seed: int) -> None:
        self.client = ServeClient(address)
        self.source = f"src{index}"
        self.client.open(self.source)
        rng = random.Random(seed * 1_000_003 + index)
        n_nodes = self.client.n_nodes
        self.pool = [[rng.randrange(n_nodes) for _ in range(BATCH)] for _ in range(POOL)]
        self.cursor = 0
        self.totals = {"n": 0, "access_cost": 0, "adjustment_cost": 0}
        self.errors = 0

    def send(self) -> int:
        """Send the next batch; return how many requests were acknowledged."""
        batch = self.pool[self.cursor % POOL]
        self.cursor += 1
        try:
            reply = self.client.request_batch(batch)
        except ServeError:
            self.errors += 1
            return 0
        for key in self.totals:
            self.totals[key] += int(reply[key])
        return int(reply["n"])


def run_closed(connection: Connection, batches: int, out: dict) -> None:
    out["acked"] = sum(connection.send() for _ in range(batches))


def run_open(connection: Connection, batches: int, interval: float, start: float,
             offset: float, out: dict) -> None:
    latency = []
    late = []
    acked = 0
    for k in range(batches):
        due = start + offset + k * interval
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            now = time.perf_counter()
        late.append((now - due) * 1e3)
        acked += connection.send()
        latency.append((time.perf_counter() - due) * 1e3)
    out.update(acked=acked, latency_ms=latency, late_ms=late)


def sampled(run):
    """Run ``run()`` while sampling the reference slice every 10 ms of CPU.

    Returns ``run()``'s reply with the slice times added, so the benchmark
    can calibrate a closed-loop window by this process's speed as well as
    the server's.
    """
    samples = []
    signal.signal(signal.SIGPROF, lambda *_: samples.append(time_slice()))
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        reply = run()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    reply["slices"] = samples
    return reply


def parallel(connections, target, args_of) -> dict:
    outs = [{} for _ in connections]
    busy = sum(c.client.busy_count for c in connections)
    errors = sum(c.errors for c in connections)
    threads = [
        threading.Thread(target=target, args=(c, *args_of(i), outs[i]))
        for i, c in enumerate(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = {
        "acked": sum(out["acked"] for out in outs),
        "busy": sum(c.client.busy_count for c in connections) - busy,
        "errors": sum(c.errors for c in connections) - errors,
    }
    if "latency_ms" in outs[0]:
        merged["latency_ms"] = [v for out in outs for v in out["latency_ms"]]
        merged["late_ms"] = [v for out in outs for v in out["late_ms"]]
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--address", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    connections = [Connection(args.address, i, args.seed) for i in range(CONNECTIONS)]
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        words = line.split()
        if not words:
            continue
        if words[0] == "closed":
            batches = int(words[1])
            reply = sampled(lambda: parallel(connections, run_closed, lambda i: (batches,)))
        elif words[0] == "open":
            batches, interval = int(words[1]), float(words[2])
            start = time.perf_counter() + 0.002
            step = interval / len(connections)
            reply = parallel(
                connections, run_open, lambda i: (batches, interval, start, i * step)
            )
        elif words[0] == "stop":
            for c in connections:
                c.client.drain()
            reply = {"totals": {c.source: c.totals for c in connections}}
            for c in connections:
                c.client.close()
            print(json.dumps(reply), flush=True)
            return 0
        else:
            reply = {"error": f"unknown command {words[0]!r}"}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
