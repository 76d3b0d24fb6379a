"""live_serve: a ServeServer in this process, its load generator in another.

The server runs rotor-push on 1,023 nodes with the ingest log on.  One
client process (``perfbench/loadgen.py``) opens 2 connections and sends
batches of 16.  Three phases:

1. closed loop: every connection sends its next batch as soon as the
   previous reply arrives, in fixed windows; requests acknowledged per
   reference-second is the capacity (``req_per_s``);
2. open loop: batches are sent on a schedule at a fixed offered rate of
   ``OPEN_RATE`` requests per reference-second, about half the capacity.
   The schedule is converted to wall time with the machine speed measured
   just before each window, so the server's utilisation stays the same when
   the machine slows.  Latency is timed from when each batch was due;
3. ``repro replay`` rebuilds the cost table from the ingest log the run
   recorded, and must print the live table exactly.

Small batches make per-call costs dominate: framing, ingest append and
flush, engine dispatch and asyncio queueing.  The volume of every phase is
fixed by ``--seconds``, not by elapsed time, so the log that the replay
reads is the same size on a fast and on a slow machine.  Closed-loop windows
are calibrated by slices sampled during the window in both processes, since
capacity depends on the speed of both.  Open-loop windows are calibrated by
slices between windows only: a slice sampled during a window holds the
interpreter lock and would show up as latency.  The server and the load
generator are pinned to one CPU, so a round trip never waits for an idle
virtual CPU to be woken: that wake-up time depends on the host, not on the
program, and made capacity vary by 20% from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List

from perfbench.calib import NOMINAL_S, Calibrator
from perfbench.workloads.base import Measurement, Workload

N_NODES = 1_023
#: The load generator's batch size and connection count.
BATCH = 16
CONNECTIONS = 2
#: Batches per connection in one closed-loop window, and windows per second
#: of the ``--seconds`` budget.
CLOSED_BATCHES = 200
CLOSED_WINDOWS_PER_S = 2.5
#: Offered rate of the open loop, in requests per reference-second, and the
#: batches per connection in one open-loop window.
OPEN_RATE = 32_000
OPEN_BATCHES = 250
OPEN_WINDOWS_PER_S = 1.5
#: Capacity is the upper quartile of the closed-loop windows' rates: the
#: host slows some windows in ways no slice sees (wake-ups, kernel paths),
#: never speeds them up, so the least-disturbed windows are the steadiest
#: estimate.  Across runs its spread was 2% against 3% for the median.
CAPACITY_QUANTILE = 0.75
REPLAYS = 3
LOADGEN = Path(__file__).resolve().parent.parent / "loadgen.py"


def percentile(values: List[float], q: float) -> float:
    """The ``q`` quantile (0..1) of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class LiveServe(Workload):
    name = "live_serve"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.busy = 0
        self.sessions = 0
        self.server = None
        self.server_stopped = True
        self.client = None

    def setup(self) -> None:
        from repro.serve.server import ServeServer

        # before the server thread and the client start: both inherit it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.sessions += 1
        self.log_dir = self.work_dir / f"ingest-{self.sessions}"
        self.server = ServeServer(
            n_nodes=N_NODES if self.size == "full" else 63,
            algorithm="rotor-push",
            base_seed=self.seed,
            log_dir=str(self.log_dir),
        ).start()
        self.server_stopped = False
        self.client = subprocess.Popen(
            [sys.executable, str(LOADGEN), "--address", self.server.address,
             "--seed", str(self.seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._reply()
        self.command("closed 20")

    def _reply(self) -> dict:
        line = self.client.stdout.readline()
        if not line:
            raise RuntimeError("the load generator exited early")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.client.stdin.write(text + "\n")
        self.client.stdin.flush()
        reply = self._reply()
        if "error" in reply:
            raise RuntimeError(f"load generator: {reply['error']}")
        return reply

    def _count(self, reply: dict, batches: int) -> None:
        self.attempted += batches
        self.failed += reply["busy"] + reply["errors"]
        self.busy += reply["busy"]

    def ingest_bytes(self) -> int:
        """Bytes of the ingest log the current session recorded."""
        return sum(path.stat().st_size for path in self.log_dir.glob("segment-*"))

    def measure(self, calibrator: Calibrator, seconds: float, fixed: bool = False) -> Measurement:
        full = self.size == "full"
        per_window = CLOSED_BATCHES if full else 20
        closed_windows = 10 if fixed else max(2, round(seconds * CLOSED_WINDOWS_PER_S))
        open_batches = OPEN_BATCHES if full else 30
        open_windows = 6 if fixed else max(2, round(seconds * OPEN_WINDOWS_PER_S))

        rates, wall_rates = [], []
        round_trip_s = 0.0
        for _ in range(closed_windows):
            with calibrator.unit(sample=True) as timing:
                reply = self.command(f"closed {per_window}")
            timing.slices.extend(reply["slices"])
            self._count(reply, per_window * CONNECTIONS)
            rates.append(reply["acked"] / timing.ref_s)
            wall_rates.append(reply["acked"] / timing.wall_s)
            round_trip_s += timing.wall_s * CONNECTIONS

        interval_ref = CONNECTIONS * BATCH / OPEN_RATE
        latency, wall_latency, late = [], [], []
        for _ in range(open_windows):
            speed = NOMINAL_S / statistics.harmonic_mean(calibrator.slices(2))
            with calibrator.unit() as timing:
                reply = self.command(f"open {open_batches} {interval_ref / speed!r}")
            self._count(reply, open_batches * CONNECTIONS)
            latency.extend(value * timing.factor for value in reply["latency_ms"])
            wall_latency.extend(reply["latency_ms"])
            late.extend(reply["late_ms"])
            round_trip_s += sum(reply["latency_ms"]) / 1e3

        totals = self.command("stop")["totals"]
        self.client.wait(timeout=30)
        self._stop_server()
        self._check_totals(totals)
        replay, wall_replay = self.replay(calibrator)
        return Measurement(
            req_per_s=percentile(rates, CAPACITY_QUANTILE),
            requests=sum(int(t["n"]) for t in totals.values()),
            units=closed_windows + open_windows,
            wall={
                "req_per_s": percentile(wall_rates, CAPACITY_QUANTILE),
                "batch_p50_ms": percentile(wall_latency, 0.5),
                "batch_p99_ms": percentile(wall_latency, 0.99),
                "replay_s": wall_replay,
                "client_round_trip_s": round_trip_s,
            },
            extra={
                "batch_p50_ms": percentile(latency, 0.5),
                "batch_p99_ms": percentile(latency, 0.99),
                "batch_samples": len(latency),
                "client_late_p99_ms": percentile(late, 0.99),
                "replay_s": replay,
            },
        )

    def _check_totals(self, totals: dict) -> None:
        """Reply-accumulated client totals must equal the server's own."""
        by_source = {row["source"]: row for row in self.server.engine.stats()["sources"]}
        for source, seen in totals.items():
            row = by_source.get(source)
            if row is None or (
                row["n_requests"], row["total_access_cost"], row["total_adjustment_cost"]
            ) != (seen["n"], seen["access_cost"], seen["adjustment_cost"]):
                self.mismatch(f"client totals {seen} != server totals {row} for {source}")

    def replay(self, calibrator: Calibrator):
        """Time ``repro replay`` on the recorded log; return median ref and wall."""
        from repro.cli import main as repro_main

        live = self.server.engine.cost_table().format_text()
        ref, wall = [], []
        for _ in range(REPLAYS):
            output = io.StringIO()
            with calibrator.unit(sample=True) as timing:
                with contextlib.redirect_stdout(output):
                    code = repro_main(["replay", str(self.log_dir)])
            ref.append(timing.ref_s)
            wall.append(timing.wall_s)
            if code != 0 or output.getvalue().strip() != live.strip():
                self.mismatch("repro replay did not reproduce the live cost table")
        return statistics.median(ref), statistics.median(wall)

    def close(self) -> None:
        if self.client is not None:
            if self.client.poll() is None:
                self.client.kill()
            self.client.wait(timeout=30)
            self.client.stdin.close()
            self.client.stdout.close()
        self._stop_server()

    def _stop_server(self) -> None:
        """Drain and stop the server once; its engine stays readable."""
        if self.server is not None and not self.server_stopped:
            self.server.stop()
            self.server_stopped = True
