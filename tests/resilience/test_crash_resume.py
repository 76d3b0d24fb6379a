"""SIGKILL a cached pool campaign mid-run, then resume it byte-identically.

The checkpoint store's durability contract: a record survives the death of
its writer once ``put`` has returned.  A ``repro run --jobs 2 --cache-dir``
killed with ``SIGKILL`` (parent and pool workers alike) therefore keeps
every payload it persisted, and ``--resume`` executes exactly the rest and
prints what a clean run prints.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.resilience import ResultStore

SRC = Path(__file__).resolve().parents[2] / "src"
RUN = ["run", "smoke", "--trials", "200", "--requests", "3000"]
N_PAYLOADS = 200 * 3
#: Records the killed run's segment holds before the kill.
KILL_AFTER = 60


def repro_cli(*args: str, **kwargs):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args], env=env, **kwargs
    )


def finish(process: subprocess.Popen) -> bytes:
    stdout, _ = process.communicate(timeout=120)
    assert process.returncode == 0
    return stdout


def records_in(cache: Path) -> int:
    return sum(
        segment.read_bytes().count(b"repro-result 2 ")
        for segment in cache.glob("seg-*.log")
    )


def test_sigkilled_campaign_resumes_byte_identically(tmp_path):
    cache = tmp_path / "cache"
    clean = finish(repro_cli(*RUN, stdout=subprocess.PIPE))

    victim = repro_cli(
        *RUN, "--jobs", "2", "--cache-dir", str(cache),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,  # its pool workers share its process group
    )
    try:
        deadline = time.monotonic() + 60
        while records_in(cache) < KILL_AFTER:
            assert victim.poll() is None, "the campaign finished before the kill"
            assert time.monotonic() < deadline
            time.sleep(0.002)
    finally:
        os.killpg(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
    assert victim.returncode == -signal.SIGKILL
    survivors = set(ResultStore(cache).keys())
    assert KILL_AFTER <= len(survivors) < N_PAYLOADS

    killed_segments = set(cache.glob("seg-*.log"))
    resumed = finish(
        repro_cli(
            *RUN, "--jobs", "2", "--cache-dir", str(cache), "--resume",
            stdout=subprocess.PIPE,
        )
    )
    assert resumed == clean
    # the resume wrote one segment: exactly the payloads the kill lost
    (segment,) = set(cache.glob("seg-*.log")) - killed_segments
    headers = segment.read_bytes().split(b"\n")[::2]
    executed = {header.split(b" ")[2].decode() for header in headers if header}
    assert executed.isdisjoint(survivors)
    assert len(executed) + len(survivors) == N_PAYLOADS
    assert len(ResultStore(cache)) == N_PAYLOADS
