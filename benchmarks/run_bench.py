#!/usr/bin/env python
"""Perf-trajectory benchmark: serve throughput and parallel trial scaling.

Emits ``BENCH_serve.json`` so that every perf-oriented PR can be measured
against its predecessors on the same hardware.  The measured layers:

* **serve throughput** — whole-run requests/second per algorithm on the
  microbench configuration (1,023-node tree, combined-locality workload,
  ``keep_records=False``), once per chunk type (list chunks through the
  scalar loops versus ndarray chunks through the vectorised batch ports,
  the latter only when NumPy is importable), plus the streaming serve cost
  with per-request cost records kept; and
* **chunk equivalence** — a guard that both chunk types produce identical
  totals and placements before any throughput number is trusted; and
* **parallel trial scaling** — wall-clock of ``compare_algorithms`` at
  ``n_jobs=1`` versus ``n_jobs=<cpus>``, together with a determinism check
  that both produce identical aggregates; and
* **fan-out payloads** — build time, pickled size and parallel dispatch
  wall-clock of materialised-sequence payloads versus spec-shipped streaming
  payloads for the same trial grid, with a determinism cross-check; and
* **multi-source scenarios** — serve throughput of a spec-shipped
  :class:`repro.plans.NetworkPlan` (per-source trees routing a streamed
  traffic trace), payload size, and an ``n_jobs`` determinism check; and
* **resilience** — cold-run versus warm-cache wall-clock of the smoke
  golden plan through the checkpoint store (``repro.run(plan, cache=...,
  resume=True)``), with a bit-identity check between the two; and
* **corpus scenario** — end-to-end wall-clock of the corpus pipeline plan
  (synthetic corpus → complexity map + per-algorithm cost table), serial
  versus parallel, with an ``n_jobs`` determinism check over both tables; and
* **live serving** — sustained requests/second and p50/p99 enqueue-to-reply
  latency of a real ``repro serve`` daemon (asyncio TCP endpoint, ingest
  log attached) under concurrent client threads, gated on the recorded log
  replaying to the bit-identical live cost table; and
* **telemetry overhead** — the same trial fan-out timed with the real
  :class:`repro.telemetry.MetricsRegistry` versus a
  :class:`~repro.telemetry.NullRegistry` floor, gated on the always-on
  instrumentation costing under :data:`TELEMETRY_BUDGET_PCT` percent (with
  an absolute noise floor so micro-runs don't flap) and on both arms
  producing bit-identical results.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick] [--out BENCH_serve.json]

``--quick`` shrinks the workload for CI smoke runs (a few seconds); the
default configuration matches the numbers recorded in ``BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import pickle

from repro.algorithms.registry import make_algorithm
from repro.core import backend as backend_mod
from repro.experiments import build_corpus_pipeline_plan
from repro.network.traffic import TrafficSpec
from repro.plans import NetworkPlan, RunConfig, load_golden_plan, plan_with_overrides
from repro.plans.execute import build_network_payloads, last_run_stats, run as run_plan
from repro.resilience import ResultStore
from repro.sim.runner import TrialRunner, compare_algorithms, execute_payloads
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.spec import WorkloadSpec

#: Steady-state whole-run serve cost (microseconds/request, best of 3) of the
#: seed revision (commit 00cf76e) on the reference container, measured with
#: the same configuration as :func:`bench_serve`.  Kept here so every future
#: run reports its speedup against the original implementation.
SEED_BASELINE_US_PER_REQUEST = {
    "rotor-push": 4.548,
    "random-push": 4.341,
    "move-half": 6.729,
    "max-push": 8.053,
    "move-to-front": 3.173,
    "static-oblivious": 2.435,
}

#: All benchmarked algorithms: the seed-baselined six plus Static-Opt (added
#: with the vectorised static port, which settles its whole serve loop; it
#: has no seed-era baseline to compare against).
ALGORITHMS = list(SEED_BASELINE_US_PER_REQUEST) + ["static-opt"]

#: Chunk types the serve arms and the equivalence guard cover here.
CHUNK_TYPES = ("list", "ndarray") if backend_mod.HAS_NUMPY else ("list",)


def _chunks_for(n_nodes: int, n_requests: int, chunk_type: str):
    """Materialise the benchmark stream as ``"list"`` or ``"ndarray"`` chunks.

    Generation happens outside the timed region; what is timed is exactly
    what a pool worker does with chunks in hand: ``run_stream`` into the
    serve path.
    """
    workload = CombinedLocalityWorkload(n_nodes, 1.4, 0.5, seed=1)
    as_array = chunk_type == "ndarray"
    return list(workload.iter_requests(n_requests, as_array=as_array))


def bench_serve(
    n_nodes: int,
    n_requests: int,
    repeats: int,
    chunk_type: str,
    reference: dict = None,
) -> dict:
    """Whole-run serve throughput per algorithm (keep_records=False fast loop).

    ``reference`` (the list-chunk result, when benchmarking ndarray chunks)
    adds a ``speedup_vs_list`` figure per algorithm.
    """
    chunks = _chunks_for(n_nodes, n_requests, chunk_type)
    results = {}
    for name in ALGORITHMS:
        best = float("inf")
        for _ in range(repeats):
            instance = make_algorithm(
                name,
                n_nodes=n_nodes,
                placement_seed=2,
                seed=3,
                keep_records=False,
            )
            start = time.perf_counter()
            instance.run_stream(chunks)
            best = min(best, time.perf_counter() - start)
        us_per_request = best / n_requests * 1e6
        entry = {
            "chunk_type": chunk_type,
            "us_per_request": round(us_per_request, 4),
            "requests_per_sec": round(n_requests / best),
        }
        baseline = SEED_BASELINE_US_PER_REQUEST.get(name)
        if baseline is not None:
            entry["seed_us_per_request"] = baseline
            entry["speedup_vs_seed"] = round(baseline / us_per_request, 2)
        if reference is not None:
            entry["speedup_vs_list"] = round(
                reference[name]["us_per_request"] / us_per_request, 2
            )
        results[name] = entry
    return results


def bench_serve_with_records(
    n_nodes: int, n_requests: int, repeats: int, chunk_type: str
) -> dict:
    """Streaming serve cost with per-request cost records retained.

    Measures the columnar record path end to end: the run buffers every
    record and the consumer then reads all of them (iterating
    ``RunResult.per_request`` materialises one :class:`RequestCost` per
    request), so buffering *and* lazy materialisation are both inside the
    timed region — comparable to the pre-columnar numbers, which built one
    record object per request while serving.
    """
    chunks = _chunks_for(n_nodes, n_requests, chunk_type)
    results = {}
    for name in ("rotor-push", "static-oblivious"):
        best = float("inf")
        for _ in range(repeats):
            instance = make_algorithm(
                name,
                n_nodes=n_nodes,
                placement_seed=2,
                seed=3,
                keep_records=True,
            )
            start = time.perf_counter()
            result = instance.run_stream(chunks)
            consumed = sum(record.access_cost for record in result.per_request)
            best = min(best, time.perf_counter() - start)
        assert len(result.per_request) == n_requests
        assert consumed == result.total_access_cost
        results[name] = {
            "chunk_type": chunk_type,
            "us_per_request": round(best / n_requests * 1e6, 4),
            "requests_per_sec": round(n_requests / best),
        }
    return results


def bench_chunk_equivalence(n_nodes: int, n_requests: int) -> dict:
    """Assert list and ndarray chunks produce identical costs and placements.

    Without NumPy only list chunks exist and the guard is vacuously true.
    """
    identical = True
    for name in ALGORITHMS:
        outcomes = []
        for chunk_type in CHUNK_TYPES:
            chunks = _chunks_for(n_nodes, n_requests, chunk_type)
            instance = make_algorithm(
                name,
                n_nodes=n_nodes,
                placement_seed=2,
                seed=3,
                keep_records=False,
            )
            result = instance.run_stream(chunks)
            outcomes.append(
                (
                    result.total_access_cost,
                    result.total_adjustment_cost,
                    result.n_requests,
                    instance.network.placement(),
                )
            )
        identical = identical and all(outcome == outcomes[0] for outcome in outcomes)
    return {"chunk_types": list(CHUNK_TYPES), "identical": identical}


def bench_parallel(n_nodes: int, n_requests: int, n_trials: int) -> dict:
    """Wall-clock of compare_algorithms at n_jobs=1 vs n_jobs=<cpus> + determinism."""
    algorithms = ["rotor-push", "random-push", "move-half", "max-push"]

    def factory(seed: int) -> CombinedLocalityWorkload:
        return CombinedLocalityWorkload(n_nodes, 1.4, 0.5, seed=seed)

    def timed(n_jobs: int):
        start = time.perf_counter()
        aggregated = compare_algorithms(
            algorithms,
            factory,
            n_nodes=n_nodes,
            config=RunConfig(
                n_requests=n_requests, n_trials=n_trials, n_jobs=n_jobs
            ),
        )
        return time.perf_counter() - start, aggregated

    cpus = os.cpu_count() or 1
    serial_seconds, serial = timed(1)
    parallel_jobs = max(2, cpus)
    parallel_seconds, parallel = timed(parallel_jobs)
    identical = all(
        serial[name].access_cost == parallel[name].access_cost
        and serial[name].adjustment_cost == parallel[name].adjustment_cost
        and serial[name].total_cost == parallel[name].total_cost
        for name in algorithms
    )
    return {
        "cpus": cpus,
        "n_trials": n_trials,
        "n_jobs_parallel": parallel_jobs,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "deterministic": identical,
    }


def bench_fanout(n_nodes: int, n_requests: int, n_trials: int, n_jobs: int) -> dict:
    """Payload build + dispatch cost: materialised sequences vs shipped specs."""
    algorithms = ["rotor-push", "static-oblivious"]

    def factory(seed: int) -> CombinedLocalityWorkload:
        return CombinedLocalityWorkload(n_nodes, 1.4, 0.5, seed=seed)

    runner = TrialRunner(
        n_nodes,
        RunConfig(n_requests=n_requests, n_trials=n_trials, base_seed=1),
    )

    start = time.perf_counter()
    sequences = runner.trial_sequences(factory)
    materialised = runner.build_payloads(algorithms, sequences)
    materialised_build = time.perf_counter() - start
    materialised_bytes = len(pickle.dumps(materialised))

    start = time.perf_counter()
    sources = runner.trial_sources(factory)
    spec_payloads = runner.build_payloads(algorithms, sources)
    spec_build = time.perf_counter() - start
    spec_bytes = len(pickle.dumps(spec_payloads))

    start = time.perf_counter()
    materialised_results = execute_payloads(materialised, n_jobs)
    materialised_dispatch = time.perf_counter() - start

    start = time.perf_counter()
    spec_results = execute_payloads(spec_payloads, n_jobs)
    spec_dispatch = time.perf_counter() - start

    identical = all(
        left.to_dict() == right.to_dict()
        for left, right in zip(materialised_results, spec_results)
    )
    return {
        "n_payloads": len(spec_payloads),
        "n_jobs": n_jobs,
        "materialised": {
            "build_seconds": round(materialised_build, 4),
            "payload_bytes": materialised_bytes,
            "dispatch_seconds": round(materialised_dispatch, 3),
        },
        "spec": {
            "build_seconds": round(spec_build, 4),
            "payload_bytes": spec_bytes,
            "dispatch_seconds": round(spec_dispatch, 3),
        },
        "payload_bytes_ratio": round(materialised_bytes / max(1, spec_bytes), 1),
        "deterministic": identical,
    }


def bench_multisource(
    n_nodes: int, n_sources: int, requests_per_source: int, n_jobs: int
) -> dict:
    """Spec-shipped multi-source serve throughput + payload size + determinism.

    Times ``repro.run`` on a :class:`repro.plans.NetworkPlan` (the PR-5
    plan-native path: workers rebuild the network and stream the trace), then
    re-runs it at ``n_jobs`` workers and cross-checks bit-identity.  The
    payload size shows what actually crosses the process boundary — specs,
    never a trace.
    """
    traffic = TrafficSpec.create(
        n_nodes,
        {
            source: WorkloadSpec.create(
                "combined-locality",
                n_elements=n_nodes,
                zipf_exponent=1.4,
                repeat_probability=0.5,
            )
            for source in range(n_sources)
        },
        interleaving="uniform_pairs",
    )
    plan = NetworkPlan(
        name="bench_multisource",
        traffic=traffic,
        algorithm="rotor-push",
        config=RunConfig(
            n_requests=requests_per_source, n_trials=2, base_seed=1
        ),
    )
    payload_bytes = len(pickle.dumps(build_network_payloads(plan)))
    total_requests = plan.config.n_trials * n_sources * requests_per_source

    start = time.perf_counter()
    serial = run_plan(plan)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_plan(plan_with_overrides(plan, n_jobs=n_jobs))
    parallel_seconds = time.perf_counter() - start

    return {
        "n_nodes": n_nodes,
        "n_sources": n_sources,
        "requests_per_source": requests_per_source,
        "n_trials": plan.config.n_trials,
        "payload_bytes": payload_bytes,
        "us_per_request": round(serial_seconds / total_requests * 1e6, 4),
        "requests_per_sec": round(total_requests / serial_seconds),
        "n_jobs_parallel": n_jobs,
        "parallel_seconds": round(parallel_seconds, 3),
        "serial_seconds": round(serial_seconds, 3),
        "deterministic": serial.rows == parallel.rows,
    }


def bench_resilience(n_trials: int, n_requests: int) -> dict:
    """Cold-run vs warm-cache wall-clock of the smoke golden plan.

    The checkpoint layer's overhead budget: the cold run pays one content
    hash + atomic write per trial on top of the plain fan-out; the warm
    ``resume=True`` re-run serves every trial from the store and should cost
    hashing + JSON parsing only.  Both must produce the bit-identical table.
    """
    plan = plan_with_overrides(
        load_golden_plan("smoke"), n_trials=n_trials, n_requests=n_requests
    )
    baseline = run_plan(plan)
    with tempfile.TemporaryDirectory(prefix="bench-resilience-") as cache_dir:
        start = time.perf_counter()
        cold = run_plan(plan, cache=cache_dir)
        cold_seconds = time.perf_counter() - start
        entries = len(ResultStore(cache_dir))
        start = time.perf_counter()
        warm = run_plan(plan, cache=cache_dir, resume=True)
        warm_seconds = time.perf_counter() - start
        stats = last_run_stats()
    return {
        "plan": "smoke",
        "n_trials": n_trials,
        "n_requests": n_requests,
        "entries": entries,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        "warm_cache_hits": stats.cache_hits,
        "warm_executed": stats.executed,
        "deterministic": baseline.rows == cold.rows == warm.rows,
    }


def bench_corpus(n_books: int, scale: float, max_requests: int, n_jobs: int) -> dict:
    """End-to-end wall-clock of the corpus pipeline scenario plan.

    The PR-7 scenario path: ``corpus`` recipe specs ship to pool workers,
    which rebuild the synthetic books and stream the sliding-window sequence
    into the serve path; the complexity map is computed parent-side.  Serial
    and parallel runs must produce bit-identical tables.
    """
    plan = build_corpus_pipeline_plan(
        n_books=n_books, scale=scale, max_requests=max_requests
    )
    start = time.perf_counter()
    serial = run_plan(plan)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_plan(plan_with_overrides(plan, n_jobs=n_jobs))
    parallel_seconds = time.perf_counter() - start

    n_payloads = len(serial["corpus_costs"].rows)
    return {
        "n_books": n_books,
        "scale": scale,
        "max_requests": max_requests,
        "n_payloads": n_payloads,
        "serial_seconds": round(serial_seconds, 3),
        "n_jobs_parallel": n_jobs,
        "parallel_seconds": round(parallel_seconds, 3),
        "deterministic": all(
            serial[key].rows == parallel[key].rows for key in serial
        ),
    }


def bench_live(
    n_nodes: int, n_sources: int, n_requests: int, batch_size: int
) -> dict:
    """Sustained live-serve throughput and enqueue-to-reply latency.

    One real :class:`repro.serve.server.ServeServer` (asyncio daemon, TCP,
    ingest log attached) driven by one concurrent client thread per source;
    every ``request_batch`` round-trip is timed client-side, giving the
    enqueue-to-reply latency distribution under concurrent load.  The
    recorded ingest log is then replayed through ``repro.run`` and must
    reproduce the live cost table exactly — the determinism gate of the
    live-serve subsystem.
    """
    import random
    import threading

    from repro.serve.client import ServeClient
    from repro.serve.replay import build_replay_plan
    from repro.serve.server import ServeServer

    with tempfile.TemporaryDirectory(prefix="bench-live-") as root:
        log_dir = Path(root) / "ingest"
        server = ServeServer(
            n_nodes=n_nodes, algorithm="rotor-push", log_dir=str(log_dir)
        ).start()
        latencies: list = []
        lock = threading.Lock()

        def drive(index: int) -> None:
            with ServeClient(server.address) as client:
                client.open(f"source-{index}")
                rng = random.Random(1_000 + index)
                local = []
                remaining = n_requests
                while remaining:
                    size = min(batch_size, remaining)
                    batch = [rng.randrange(n_nodes) for _ in range(size)]
                    begin = time.perf_counter()
                    client.request_batch(batch)
                    local.append(time.perf_counter() - begin)
                    remaining -= size
                client.drain()
            with lock:
                latencies.extend(local)

        threads = [
            threading.Thread(target=drive, args=(index,), daemon=True)
            for index in range(n_sources)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        live_table = server.engine.cost_table()
        server.stop()
        replayed = run_plan(build_replay_plan(log_dir))

    total = n_sources * n_requests
    ordered = sorted(latencies)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(int(len(ordered) * 0.99), len(ordered) - 1)]
    return {
        "n_nodes": n_nodes,
        "n_sources": n_sources,
        "requests_per_source": n_requests,
        "batch_size": batch_size,
        "wall_seconds": round(wall, 3),
        "req_per_s": round(total / wall),
        "batch_p50_ms": round(p50 * 1_000, 3),
        "batch_p99_ms": round(p99 * 1_000, 3),
        "deterministic": replayed.rows == live_table.rows
        and replayed.format_text() == live_table.format_text(),
    }


#: Telemetry overhead budget: full instrumentation may cost at most this
#: fraction of the NullRegistry floor on the trial fan-out.
TELEMETRY_BUDGET_PCT = 2.0

#: Absolute wall-clock slack under which an overhead measurement is treated
#: as CI noise rather than a regression (quick runs finish in well under a
#: second, where scheduler jitter alone exceeds 2%).
TELEMETRY_NOISE_FLOOR_SECONDS = 0.05


def bench_telemetry(n_nodes: int, n_requests: int, n_trials: int, repeats: int) -> dict:
    """Instrumentation overhead: default registry vs the NullRegistry floor.

    Runs the identical serial trial fan-out ``repeats`` times per arm
    (alternating arms so clock drift hits both equally), keeps the best
    wall-clock of each, and reports the relative overhead.  The arms must
    also produce bit-identical result documents — telemetry that moves
    results is a bug regardless of its cost.
    """
    from repro.telemetry.registry import MetricsRegistry, NullRegistry, use_registry

    algorithms = ["rotor-push", "static-oblivious"]

    def factory(seed: int) -> CombinedLocalityWorkload:
        return CombinedLocalityWorkload(n_nodes, 1.4, 0.5, seed=seed)

    runner = TrialRunner(
        n_nodes,
        RunConfig(n_requests=n_requests, n_trials=n_trials, base_seed=1),
    )
    payloads = runner.build_payloads(algorithms, runner.trial_sources(factory))

    best = {"instrumented": float("inf"), "floor": float("inf")}
    documents: dict = {}
    for _ in range(repeats):
        for arm, registry_factory in (
            ("floor", NullRegistry),
            ("instrumented", MetricsRegistry),
        ):
            with use_registry(registry_factory()):
                start = time.perf_counter()
                results = execute_payloads(payloads, 1)
                elapsed = time.perf_counter() - start
            best[arm] = min(best[arm], elapsed)
            documents[arm] = [result.to_dict() for result in results]

    delta = best["instrumented"] - best["floor"]
    overhead_pct = delta / best["floor"] * 100
    return {
        "n_payloads": len(payloads),
        "repeats": repeats,
        "floor_seconds": round(best["floor"], 4),
        "instrumented_seconds": round(best["instrumented"], 4),
        "overhead_pct": round(overhead_pct, 3),
        "budget_pct": TELEMETRY_BUDGET_PCT,
        "within_budget": (
            overhead_pct <= TELEMETRY_BUDGET_PCT
            or delta <= TELEMETRY_NOISE_FLOOR_SECONDS
        ),
        "deterministic": documents["floor"] == documents["instrumented"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke configuration")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    if args.quick:
        serve_nodes, serve_requests, repeats = 255, 4_000, 2
        par_nodes, par_requests, par_trials = 255, 2_000, 2
        multi_nodes, multi_sources, multi_rps = 255, 8, 500
        resil_trials, resil_requests = 2, 2_000
        corpus_books, corpus_scale, corpus_requests = 2, 0.05, 2_000
        live_nodes, live_sources, live_requests, live_batch = 255, 2, 600, 8
    else:
        serve_nodes, serve_requests, repeats = 1_023, 20_000, 3
        par_nodes, par_requests, par_trials = 1_023, 30_000, 4
        multi_nodes, multi_sources, multi_rps = 1_023, 16, 2_000
        resil_trials, resil_requests = 3, 20_000
        corpus_books, corpus_scale, corpus_requests = 3, 0.15, 30_000
        live_nodes, live_sources, live_requests, live_batch = 1_023, 4, 5_000, 16

    serve_lists = bench_serve(serve_nodes, serve_requests, repeats, "list")
    with_numpy = backend_mod.HAS_NUMPY
    report = {
        "benchmark": "BENCH_serve",
        "quick": args.quick,
        "config": {
            "serve": {"n_nodes": serve_nodes, "n_requests": serve_requests},
            "parallel": {
                "n_nodes": par_nodes,
                "n_requests": par_requests,
                "n_trials": par_trials,
            },
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "numpy": backend_mod.np.__version__ if backend_mod.HAS_NUMPY else None,
        },
        "chunk_equivalence": bench_chunk_equivalence(
            serve_nodes, min(serve_requests, 5_000)
        ),
        "serve_fast_loop": serve_lists,
        "serve_fast_loop_ndarray": bench_serve(
            serve_nodes, serve_requests, repeats, "ndarray", reference=serve_lists
        )
        if with_numpy
        else None,
        "serve_with_records": bench_serve_with_records(
            serve_nodes, serve_requests, repeats, "list"
        ),
        "serve_with_records_ndarray": bench_serve_with_records(
            serve_nodes, serve_requests, repeats, "ndarray"
        )
        if with_numpy
        else None,
        "parallel_trials": bench_parallel(par_nodes, par_requests, par_trials),
        "fanout_payloads": bench_fanout(
            par_nodes, par_requests, par_trials, max(2, os.cpu_count() or 1)
        ),
        "multisource": bench_multisource(
            multi_nodes, multi_sources, multi_rps, max(2, os.cpu_count() or 1)
        ),
        "resilience": bench_resilience(resil_trials, resil_requests),
        "live_serve": bench_live(
            live_nodes, live_sources, live_requests, live_batch
        ),
        "corpus_scenario": bench_corpus(
            corpus_books,
            corpus_scale,
            corpus_requests,
            max(2, os.cpu_count() or 1),
        ),
        "telemetry": bench_telemetry(
            par_nodes, par_requests, max(2, par_trials // 2), repeats
        ),
    }

    payload = json.dumps(report, indent=2)
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        print(f"\nwrote {args.out}", file=sys.stderr)

    if not report["chunk_equivalence"]["identical"]:
        print("ERROR: ndarray chunks diverged from list chunks", file=sys.stderr)
        return 1
    if not report["parallel_trials"]["deterministic"]:
        print("ERROR: parallel run diverged from serial run", file=sys.stderr)
        return 1
    if not report["fanout_payloads"]["deterministic"]:
        print("ERROR: spec dispatch diverged from materialised dispatch", file=sys.stderr)
        return 1
    if not report["multisource"]["deterministic"]:
        print("ERROR: parallel multisource run diverged from serial", file=sys.stderr)
        return 1
    if not report["resilience"]["deterministic"]:
        print("ERROR: cached/resumed run diverged from direct run", file=sys.stderr)
        return 1
    if report["resilience"]["warm_executed"] != 0:
        print("ERROR: warm-cache run re-executed trials", file=sys.stderr)
        return 1
    if not report["corpus_scenario"]["deterministic"]:
        print("ERROR: parallel corpus scenario diverged from serial", file=sys.stderr)
        return 1
    if not report["live_serve"]["deterministic"]:
        print("ERROR: ingest-log replay diverged from the live session", file=sys.stderr)
        return 1
    if not report["telemetry"]["deterministic"]:
        print("ERROR: instrumented run diverged from the NullRegistry run", file=sys.stderr)
        return 1
    if not report["telemetry"]["within_budget"]:
        print(
            f"ERROR: telemetry overhead {report['telemetry']['overhead_pct']}% "
            f"exceeds the {TELEMETRY_BUDGET_PCT}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
