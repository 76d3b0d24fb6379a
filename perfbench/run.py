#!/usr/bin/env python3
"""Calibrated end-to-end benchmark of the repro toolkit, with a traced run.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen): ``paper_sweep``,
``multisource_256``, ``live_serve`` and ``campaign_pool``.  The benchmark
builds every plan and request from ``--seed``, sets the program up, runs the
timed phase for about ``--seconds`` seconds, checks every output, and prints
as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

Every timing is in reference-seconds (see ``perfbench/calib.py``): wall time
scaled by how fast a fixed pure-Python slice ran around and during it, so a
machine that slows down mid-run does not read as a slower program.

``--trace 0`` reports the end-to-end metrics:

* ``req_per_s`` -- requests per reference-second of the timed phase
  (simulated requests for the campaign workloads; acknowledged requests in
  the closed-loop phase for ``live_serve``);
* ``setup_s`` -- reference-seconds from process start to the first timed
  request (imports, plan load and validation, a warm-up pass; for
  ``live_serve`` also the server start and the client handshake), the
  median of three fresh processes;
* ``peak_rss_mb`` -- peak resident memory of the benchmark process and, for
  ``campaign_pool``, of its largest pool worker.

The line before the result holds the diagnostics: the raw wall-clock value
behind every calibrated one (``wall.*``), the median slice time
(``calib.ref_ms``) and, for ``live_serve``, the open-loop batch latency and
the replay time.  ``--trace 1`` reports the per-layer metrics instead (see
``perfbench/tracing.py``).  Any output mismatch exits with status 1 and no
result line; a checkout without the program exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calib import Calibrator  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Fresh processes whose set-up is timed; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Where runs keep their ingest logs, caches and span files (git-ignored).
WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END_UNITS = {"req_per_s": "1/ref-s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="'tiny' shrinks every workload to a seconds-long smoke run",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process (and its reaped children), MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def setup_probe(args) -> int:
    """Set the workload up in this fresh process and report when ready."""
    calibrator = Calibrator(between=0)
    unit = calibrator.unit(sample=True)
    timing = unit.__enter__()
    workload = WORKLOADS[args.workload](args.seed, args.size, make_work_dir())
    try:
        workload.setup()
        unit.__exit__(None, None, None)
        print(json.dumps({"factor": timing.factor, "slices_s": sum(timing.slices)}), flush=True)
    finally:
        workload.close()
        shutil.rmtree(workload.work_dir, ignore_errors=True)
    return 0


def measure_setup(args):
    """Median set-up time of fresh processes, in ref-seconds and wall seconds."""
    ref, wall = [], []
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            if probe.wait(timeout=120) != 0 or not line:
                raise RuntimeError(f"set-up probe failed with status {probe.returncode}")
        report = json.loads(line)
        elapsed = ready - started - report["slices_s"]
        ref.append(elapsed * report["factor"])
        wall.append(elapsed)
    return statistics.median(ref), statistics.median(wall)


def make_work_dir() -> Path:
    path = WORK_ROOT / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run(args):
    """Set up, measure and check one workload; return (result, diagnostics)."""
    workload = WORKLOADS[args.workload](args.seed, args.size, make_work_dir())
    calibrator = Calibrator()
    try:
        workload.setup()
        if args.trace:
            from perfbench.tracing import traced_run

            metrics = traced_run(workload, calibrator, args.seconds)
            diagnostics = {}
        else:
            measurement = workload.measure(calibrator, args.seconds)
        workload.finish()
        # reaps the pool workers before their peak memory is read
        workload.close()
        if not args.trace:
            rss = peak_rss_mb(include_children=args.workload == "campaign_pool")
            setup_ref, setup_wall = measure_setup(args)
            metrics = {
                "req_per_s": metric(measurement.req_per_s, END_TO_END_UNITS["req_per_s"]),
                "setup_s": metric(setup_ref, END_TO_END_UNITS["setup_s"]),
                "peak_rss_mb": metric(rss, END_TO_END_UNITS["peak_rss_mb"]),
            }
            diagnostics = {
                "calib.ref_ms": metric(calibrator.ref_ms, "ms"),
                "wall.setup_s": metric(setup_wall, "s"),
                "timed.units": metric(measurement.units, "count"),
                "timed.requests": metric(measurement.requests, "count"),
            }
            for name, value in measurement.wall.items():
                diagnostics[f"wall.{name}"] = metric(value, unit_of(name, raw=True))
            for name, value in measurement.extra.items():
                diagnostics[f"{args.workload}.{name}"] = metric(value, unit_of(name))
    finally:
        workload.close()
        shutil.rmtree(workload.work_dir, ignore_errors=True)
    result = {
        "correct": not workload.mismatches,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    return result, diagnostics, workload.mismatches


def unit_of(name: str, raw: bool = False) -> str:
    if name == "req_per_s":
        return "1/s" if raw else "1/ref-s"
    if name.endswith("_ms"):
        return "ms" if raw else "ref-ms"
    if name.endswith("_s"):
        return "s" if raw else "ref-s"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    result, diagnostics, mismatches = run(args)
    if mismatches:
        for message in mismatches:
            print(f"perfbench: output mismatch: {message}", file=sys.stderr)
        return 1
    if diagnostics:
        print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
