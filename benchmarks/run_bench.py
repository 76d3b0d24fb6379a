#!/usr/bin/env python
"""Perf-trajectory benchmark: serve throughput and parallel trial scaling.

Emits ``BENCH_serve.json`` so that every perf-oriented PR can be measured
against its predecessors on the same hardware.  The measured layers:

* **serve throughput** — whole-run requests/second per algorithm on the
  microbench configuration (1,023-node tree, combined-locality workload,
  ``keep_records=False``), once per chunk type (list chunks through the
  scalar loops versus ndarray chunks, the latter only when NumPy is
  importable), plus the streaming serve cost with per-request cost records
  kept.  Each run is one chunk of at least ``n_nodes`` requests, so every
  self-adjusting algorithm is served by the C cascade kernel when it loads
  and the static trees by their NumPy port on ndarray chunks; the
  ``serve_short_chunks`` entries split the same stream into chunks of a
  quarter of the tree, which stay on the scalar loops and the static trees'
  NumPy port; and
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
* **cached pool campaign** — a cold run of the smoke golden plan (100
  trials of 2,000 requests, 300 payloads) at ``n_jobs=2`` into a fresh
  checkpoint store, against the same plan run serially without a store,
  gated on identical rows and on the ratio of the two staying under
  :data:`CACHED_POOL_RATIO_BOUND`; and
* **corpus scenario** — end-to-end wall-clock of the corpus pipeline plan
  (synthetic corpus → complexity map + per-algorithm cost table), serial
  versus parallel, with an ``n_jobs`` determinism check over both tables; and
* **live serving** — sustained requests/second and p50/p99 enqueue-to-reply
  latency of a real ``repro serve`` daemon (asyncio TCP endpoint, ingest
  log attached) under concurrent client threads, gated on the recorded log
  replaying to the bit-identical live cost table; and
* **paper-scale LRU cascades** — Max-Push and Move-Half scalar-loop serve
  cost at the paper's 65,535 nodes next to the 1,023-node figure (temporal
  workload, ``p`` = 0 and 0.9), gated on the machine-independent ratio of
  the two Max-Push figures at ``p`` = 0 staying under
  :data:`LRU_SCALE_RATIO_BOUND`; and
* **cascade kernel** — the C kernel's serve cost for Rotor-Push, Move-Half,
  Max-Push, Random-Push and Move-To-Front against the scalar loop at 1,023
  nodes (gated on
  :data:`KERNEL_SPEEDUP_BOUND`) and at 65,535 against 1,023 nodes (gated on
  :data:`KERNEL_SCALE_RATIO_BOUND`); it fails when a C compiler is on
  ``PATH`` but the kernel did not load, or loaded with its Mersenne Twister
  port disagreeing with ``random``; and
* **kernel draws** — the kernel's bulk ``random.Random`` draws (a 1,023-node
  placement shuffle, ``randrange`` and ``random()``) against the Python
  loops, gated on :data:`KERNEL_DRAWS_SPEEDUP_BOUND` and on identical
  values and generator states; and
* **trial set-up** — a 1,023-node network build that copies the placement
  memo against one that draws its placement (gated on
  :data:`TRIAL_SETUP_MEMO_BOUND`), and the kernel's initial LRU index build
  against the Python pass at 1,023 and 65,535 nodes (gated on
  :data:`TRIAL_SETUP_LRU_BOUND`), each with identical results; it fails
  when a C compiler is on ``PATH`` but the kernel did not load; and
* **multi-source build** — building the 256 trees of 1,023 nodes of a
  256-source network plus drawing its 256 × 120-request ``uniform_pairs``
  interleave, on the Python reference loops against the kernel (each tree's
  seeded placement in one call, the interleave a chunk per call), gated on
  :data:`MULTISOURCE_BUILD_BOUND` and on identical placements and orders;
  it fails when a C compiler is on ``PATH`` but the kernel did not load; and
* **network trial memory** — the ``tracemalloc`` peak of one 1,023-node
  Rotor-Push network-plan trial with 1,023 sources against the same trial
  with 16 sources, gated on :data:`NETWORK_TRIAL_MEMORY_BOUND` (a trial
  keeps one source tree alive at a time); and
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
import random
import shutil

from repro.algorithms import cascade_kernel
from repro.algorithms.lru_index import LevelLRUIndex
from repro.algorithms.registry import make_algorithm
from repro.core import CompleteBinaryTree, TreeNetwork, state
from repro.core import backend as backend_mod
from repro.experiments import build_corpus_pipeline_plan
from repro.network.multi_source import MultiSourceNetwork
from repro.network.traffic import TrafficSpec, iter_interleaving
from repro.plans import NetworkPlan, RunConfig, load_golden_plan, plan_with_overrides
from repro.plans.execute import build_network_payloads, last_run_stats, run as run_plan
from repro.resilience import ResultStore
from repro.sim.runner import TrialRunner, compare_algorithms, execute_payloads
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.temporal import TemporalWorkload

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


def _chunks_for(
    n_nodes: int, n_requests: int, chunk_type: str, chunk_size: int = None
):
    """Materialise the benchmark stream as ``"list"`` or ``"ndarray"`` chunks.

    Generation happens outside the timed region; what is timed is exactly
    what a pool worker does with chunks in hand: ``run_stream`` into the
    serve path.  ``chunk_size`` defaults to the whole stream in one chunk.
    """
    workload = CombinedLocalityWorkload(n_nodes, 1.4, 0.5, seed=1)
    as_array = chunk_type == "ndarray"
    return list(
        workload.iter_requests(n_requests, chunk_size or n_requests, as_array=as_array)
    )


def bench_serve(
    n_nodes: int,
    n_requests: int,
    repeats: int,
    chunk_type: str,
    reference: dict = None,
    chunk_size: int = None,
) -> dict:
    """Whole-run serve throughput per algorithm (keep_records=False fast loop).

    ``reference`` (the list-chunk result, when benchmarking ndarray chunks)
    adds a ``speedup_vs_list`` figure per algorithm.  ``chunk_size`` splits
    the stream; chunks shorter than ``n_nodes`` never reach the cascade
    kernel.
    """
    chunks = _chunks_for(n_nodes, n_requests, chunk_type, chunk_size)
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
            "chunk_size": len(chunks[0]),
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

    Times ``repro.run`` on a :class:`repro.plans.NetworkPlan` (workers
    serve each source's stream into its own tree, source by source), then
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


#: Upper bound on a cold cached pool campaign (the smoke plan, 300 payloads
#: at ``n_jobs=2`` into a fresh store) divided by the same plan run serially
#: without a store.  Measured on a 2-vCPU container (Python 3.11): 4-5x with
#: one file and one future per payload, about 1x with append-only segments
#: and cost-sized batches.
CACHED_POOL_RATIO_BOUND = 2.0


def bench_cached_pool(repeats: int) -> dict:
    """Cold cached pool campaign vs the same plan serial and uncached.

    Many small payloads are the case where per-payload overhead — a pool
    dispatch, a checkpoint write — shows: each payload serves 2,000
    requests on a 255-node tree.  The gate is the ratio of the best times,
    so it cancels the machine's speed; on one core the pool cannot beat the
    serial loop, only match it.
    """
    n_trials, n_requests, n_jobs = 100, 2_000, 2
    plan = plan_with_overrides(
        load_golden_plan("smoke"), n_trials=n_trials, n_requests=n_requests, n_jobs=n_jobs
    )
    serial_plan = plan_with_overrides(plan, n_jobs=1)
    expected = run_plan(serial_plan).rows
    run_plan(plan_with_overrides(plan, n_trials=2))  # spawn the pool
    identical = True
    pool_s, serial_s = float("inf"), float("inf")
    for _ in range(repeats):  # alternate, so both arms share the noise
        with tempfile.TemporaryDirectory(prefix="bench-cached-pool-") as cache_dir:
            start = time.perf_counter()
            cold = run_plan(plan, cache=cache_dir)
            pool_s = min(pool_s, time.perf_counter() - start)
            stored = last_run_stats().stored
        start = time.perf_counter()
        serial = run_plan(serial_plan)
        serial_s = min(serial_s, time.perf_counter() - start)
        identical = identical and cold.rows == serial.rows == expected
    ratio = pool_s / serial_s
    return {
        "plan": "smoke",
        "n_trials": n_trials,
        "n_requests": n_requests,
        "n_jobs": n_jobs,
        "stored": stored,
        "serial_seconds": round(serial_s, 4),
        "cached_pool_seconds": round(pool_s, 4),
        "ratio": round(ratio, 2),
        "ratio_bound": CACHED_POOL_RATIO_BOUND,
        "identical": identical,
        "ok": identical and ratio <= CACHED_POOL_RATIO_BOUND,
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


def _serve_us_per_request(
    name: str, n_nodes: int, requests: list, repeats: int, scalar: bool
) -> float:
    """Best of ``repeats`` fresh serves of one chunk, records off, in µs/request.

    ``scalar`` drives the scalar loop itself; otherwise ``serve_batch``
    dispatches the chunk (to the kernel, when it is at least ``n_nodes``
    long and the kernel loaded).
    """
    best = float("inf")
    for _ in range(repeats):
        instance = make_algorithm(
            name, n_nodes=n_nodes, placement_seed=7, seed=3, keep_records=False
        )
        serve = instance._serve_batch_scalar if scalar else instance.serve_batch
        start = time.perf_counter()
        serve(requests)
        best = min(best, time.perf_counter() - start)
    return best / len(requests) * 1e6


#: Upper bound on Max-Push's p=0 serve cost at 65,535 nodes divided by its
#: cost at 1,023 nodes.  Measured on a 2-vCPU container (Python 3.11): 3-4x
#: with the LRU index's never-accessed bitmap; 189x (2,000 requests) when
#: the index placed never-accessed elements by a walk from the list tail.
LRU_SCALE_RATIO_BOUND = 25.0


def bench_lru_scale(
    small_nodes: int, large_nodes: int, n_requests: int, repeats: int
) -> dict:
    """Max-Push and Move-Half scalar-loop µs/request at two tree sizes.

    Both sizes serve the same number of temporal requests (placement seed
    7, records off) through the scalar loop itself, never the C kernel, so
    the figures bound the Python LRU index's growth.  Each is the best of
    ``repeats`` whole runs.  The ratio of the two Max-Push figures at ``p``
    = 0 cancels the machine's speed, so it is gated in CI.
    """
    results = {}
    for p in (0.0, 0.9):
        for n_nodes in (small_nodes, large_nodes):
            requests = TemporalWorkload(n_nodes, p, seed=1).generate(n_requests)
            for name in ("max-push", "move-half"):
                results[f"{name}/p={p}/n={n_nodes}"] = round(
                    _serve_us_per_request(name, n_nodes, requests, repeats, True), 2
                )
    ratio = (
        results[f"max-push/p=0.0/n={large_nodes}"]
        / results[f"max-push/p=0.0/n={small_nodes}"]
    )
    return {
        "n_requests": n_requests,
        "us_per_request": results,
        "max_push_scale_ratio": round(ratio, 2),
        "ratio_bound": LRU_SCALE_RATIO_BOUND,
        "within_bound": ratio <= LRU_SCALE_RATIO_BOUND,
    }


#: The algorithms the C cascade kernel serves.
KERNEL_ALGORITHMS = (
    "rotor-push", "move-half", "max-push", "random-push", "move-to-front",
)

#: Lower bound on the scalar loop's µs/request divided by the kernel's, at
#: 1,023 nodes on one 20,000-request chunk at ``p`` = 0, for each kernel
#: algorithm.  Measured on a 2-vCPU container (Python 3.11, gcc -O2):
#: Rotor-Push 19-22x, Move-Half 10-15x, Max-Push 23-32x, Random-Push 23x,
#: Move-To-Front 15x.
KERNEL_SPEEDUP_BOUND = 5.0

#: Upper bound on the kernel's µs/request at 65,535 nodes divided by its
#: figure at 1,023 nodes, on 65,536-request chunks at ``p`` = 0, for each
#: kernel algorithm.  Measured on the same container: 2.9-7.5x.
KERNEL_SCALE_RATIO_BOUND = 25.0


def bench_cascade_kernel(repeats: int) -> dict:
    """The C cascade kernel against the scalar loop, and across tree sizes.

    Both gates are ratios of two figures from one run, so they cancel the
    machine's speed: the scalar loop's µs/request over the kernel's at
    1,023 nodes, and the kernel's µs/request at 65,535 nodes over its figure
    at 1,023 nodes.  The workload is temporal at ``p`` = 0 (uniform) with
    records off.  Without a loaded kernel the entry reports
    ``"unavailable"``, which is a failure only when a C compiler is on
    ``PATH``.  A kernel whose Mersenne Twister port failed its load-time
    check against ``random`` fails the entry too.
    """
    compiler = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
    loaded = cascade_kernel.load()
    if loaded is None:
        return {
            "status": "unavailable",
            "compiler_on_path": compiler,
            "ok": not compiler,
        }
    small, large = 1_023, 65_535
    speedup_requests = TemporalWorkload(small, 0.0, seed=1).generate(20_000)
    scale_requests = {
        n_nodes: TemporalWorkload(n_nodes, 0.0, seed=1).generate(65_536)
        for n_nodes in (small, large)
    }
    speedup, scale_ratio, us_per_request = {}, {}, {}
    for name in KERNEL_ALGORITHMS:
        scalar, kernel = (
            _serve_us_per_request(name, small, speedup_requests, repeats, loop)
            for loop in (True, False)
        )
        kernel_small, kernel_large = (
            _serve_us_per_request(name, n_nodes, requests, repeats, False)
            for n_nodes, requests in scale_requests.items()
        )
        us_per_request[name] = {
            f"scalar/n={small}/chunk=20000": round(scalar, 3),
            f"kernel/n={small}/chunk=20000": round(kernel, 3),
            f"kernel/n={small}/chunk=65536": round(kernel_small, 3),
            f"kernel/n={large}/chunk=65536": round(kernel_large, 3),
        }
        speedup[name] = round(scalar / kernel, 2)
        scale_ratio[name] = round(kernel_large / kernel_small, 2)
    return {
        "status": "loaded",
        "rng_port_matches": loaded.rng_port_matches,
        "us_per_request": us_per_request,
        "speedup_vs_scalar": speedup,
        "speedup_bound": KERNEL_SPEEDUP_BOUND,
        "scale_ratio": scale_ratio,
        "scale_ratio_bound": KERNEL_SCALE_RATIO_BOUND,
        "ok": loaded.rng_port_matches
        and min(speedup.values()) >= KERNEL_SPEEDUP_BOUND
        and max(scale_ratio.values()) <= KERNEL_SCALE_RATIO_BOUND,
    }


#: Lower bound on the Python loop's time divided by the kernel's, for each
#: bulk draw of :mod:`repro.core.draws` at 1,023 nodes: one placement
#: shuffle, 20,000 ``randrange(1023)`` and 20,000 ``random()`` draws, each
#: including the copy of the generator's state in and out.
#: Measured on a 2-vCPU container (Python 3.11, gcc -O2): shuffle 3.5-4.9x,
#: randrange 7-15x, random() 4.4-7.4x.
KERNEL_DRAWS_SPEEDUP_BOUND = 2.0


def bench_kernel_draws(repeats: int) -> dict:
    """The kernel's bulk ``random.Random`` draws against the Python loops.

    Each arm starts from ``random.Random(5)``; the two arms must return the
    same values and leave the same generator state.  The gate is the ratio
    of the two best times, so it cancels the machine's speed.  Like
    :func:`bench_cascade_kernel`, the entry fails when a C compiler is on
    ``PATH`` but the kernel did not load or its load-time check failed.
    """
    compiler = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
    loaded = cascade_kernel.load()
    if loaded is None:
        return {
            "status": "unavailable",
            "compiler_on_path": compiler,
            "ok": not compiler,
        }
    n, count = 1_023, 20_000

    def shuffled(rng):
        placement = list(range(n))
        rng.shuffle(placement)
        return placement

    arms = {
        f"shuffle/n={n}": (
            shuffled,
            lambda rng: loaded.shuffled_range(rng, n).tolist(),
        ),
        f"randrange({n})/count={count}": (
            lambda rng: [rng.randrange(n) for _ in range(count)],
            lambda rng: loaded.randranges(rng, n, count).tolist(),
        ),
        f"random()/count={count}": (
            lambda rng: [rng.random() for _ in range(count)],
            lambda rng: loaded.uniforms(rng, count),
        ),
    }
    us, speedup, identical = {}, {}, True
    for label, (python, kernel) in arms.items():
        best, outcome = {}, {}
        for arm, draw in (("python", python), ("kernel", kernel)):
            best[arm] = float("inf")
            for _ in range(10 * repeats):
                rng = random.Random(5)
                start = time.perf_counter()
                drawn = draw(rng)
                best[arm] = min(best[arm], time.perf_counter() - start)
            outcome[arm] = (list(drawn), rng.getstate())
        identical = identical and outcome["python"] == outcome["kernel"]
        us[label] = {arm: round(seconds * 1e6, 1) for arm, seconds in best.items()}
        speedup[label] = round(best["python"] / best["kernel"], 2)
    return {
        "status": "loaded",
        "rng_port_matches": loaded.rng_port_matches,
        "identical": identical,
        "us": us,
        "speedup_vs_python": speedup,
        "speedup_bound": KERNEL_DRAWS_SPEEDUP_BOUND,
        "ok": loaded.rng_port_matches
        and identical
        and min(speedup.values()) >= KERNEL_DRAWS_SPEEDUP_BOUND,
    }


#: Lower bound on a 1,023-node network build that draws its placement (a
#: miss of the placement memo) divided by one that copies the memo (a hit).
#: Measured on a 2-vCPU container (Python 3.11, gcc -O2): about 20x
#: (275 µs against 14 µs).
TRIAL_SETUP_MEMO_BOUND = 4.0

#: Lower bound on the Python pass's initial LRU index build divided by the
#: kernel's ``lru_build``, at 1,023 and at 65,535 nodes.  Measured on the same
#: container: 4.5x at 1,023 nodes (460 µs against 101 µs), 2.3-2.7x at
#: 65,535 (28 ms against 10-12 ms, where copying the placement in and the
#: links out dominates the kernel's time).
TRIAL_SETUP_LRU_BOUND = 2.0


def _best_seconds(build, rounds: int, number: int) -> float:
    """Best per-call time of ``build`` over ``rounds`` rounds of ``number`` calls."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(number):
            build()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def bench_trial_setup(repeats: int) -> dict:
    """Per-trial set-up: the placement memo and the kernel's LRU index build.

    Every algorithm of a trial builds its network from the trial's one
    placement seed, so all but the first copy the placement memo.  The
    first ratio is a 1,023-node build that misses the memo over one that
    hits it; both must give the same placement.  Max-Push and Move-Half
    then build a ``LevelLRUIndex``, which the C kernel builds from trees of
    ``KERNEL_MIN_DRAWS`` nodes up; the second ratio is the Python pass over
    the kernel at 1,023 and 65,535 nodes, with identical indexes.  Both
    ratios cancel the machine's speed.  Like :func:`bench_cascade_kernel`,
    the entry fails when a C compiler is on ``PATH`` but the kernel did not
    load.
    """
    rounds = 5 * repeats
    tree = CompleteBinaryTree(1_023)

    def miss():
        state._PLACEMENT_MEMO.clear()
        return TreeNetwork.with_random_placement(tree, seed=7)

    def hit():
        return TreeNetwork.with_random_placement(tree, seed=7)

    drawn, copied = miss(), hit()
    memo_identical = (drawn._elem_at, drawn._node_of) == (
        copied._elem_at, copied._node_of
    )
    miss_s, hit_s = _best_seconds(miss, rounds, 50), _best_seconds(hit, rounds, 50)
    memo_ratio = miss_s / hit_s
    report = {
        "network_us": {
            "memo_miss/n=1023": round(miss_s * 1e6, 1),
            "memo_hit/n=1023": round(hit_s * 1e6, 1),
        },
        "memo_speedup": round(memo_ratio, 2),
        "memo_bound": TRIAL_SETUP_MEMO_BOUND,
        "memo_identical": memo_identical,
    }
    memo_ok = memo_identical and memo_ratio >= TRIAL_SETUP_MEMO_BOUND
    compiler = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
    loaded = cascade_kernel.load()
    if loaded is None:
        report.update(lru_status="unavailable", compiler_on_path=compiler)
        report["ok"] = memo_ok and not compiler
        return report

    load = cascade_kernel.load

    def python_pass(network):
        cascade_kernel.load = lambda: None
        try:
            return LevelLRUIndex(network)
        finally:
            cascade_kernel.load = load

    lru_us, lru_ratio, lru_identical = {}, {}, True
    for n_nodes, number in ((1_023, 20), (65_535, 1)):
        network = TreeNetwork.with_random_placement(CompleteBinaryTree(n_nodes), seed=7)
        built, reference = LevelLRUIndex(network), python_pass(network)
        lru_identical = lru_identical and all(
            getattr(built, name) == getattr(reference, name)
            for name in LevelLRUIndex.__slots__
        )
        kernel_s, python_s = float("inf"), float("inf")
        for _ in range(rounds):  # alternate, so both arms share the noise
            kernel_s = min(
                kernel_s, _best_seconds(lambda: LevelLRUIndex(network), 1, number)
            )
            python_s = min(
                python_s, _best_seconds(lambda: python_pass(network), 1, number)
            )
        lru_us[f"kernel/n={n_nodes}"] = round(kernel_s * 1e6, 1)
        lru_us[f"python/n={n_nodes}"] = round(python_s * 1e6, 1)
        lru_ratio[f"n={n_nodes}"] = round(python_s / kernel_s, 2)
    report.update(
        lru_status="loaded",
        lru_build_us=lru_us,
        lru_speedup=lru_ratio,
        lru_bound=TRIAL_SETUP_LRU_BOUND,
        lru_identical=lru_identical,
    )
    report["ok"] = (
        memo_ok
        and lru_identical
        and min(lru_ratio.values()) >= TRIAL_SETUP_LRU_BOUND
    )
    return report


#: Lower bound on the multi-source build (256 trees of 1,023 nodes and the
#: 256 x 120-request ``uniform_pairs`` interleave) on the Python loops
#: divided by the same build on the kernel.  Measured on a 2-vCPU container
#: (Python 3.11, gcc -O2): about 4x.
MULTISOURCE_BUILD_BOUND = 2.0


def bench_multisource_build(repeats: int) -> dict:
    """A 256-source network's set-up: its trees and its interleave.

    The shape of the ``multisource_256`` perfbench workload: 256 sources
    drawn from 1,023 nodes, each owning a 1,023-node Rotor-Push tree whose
    placement is drawn from its own seed, and the ``uniform_pairs`` order
    of 120 requests per source.  The Python arm runs with the kernel
    unloaded, so every placement is shuffled and checked by the Python
    loops and every interleave step drawn by ``random.Random``; the kernel
    arm draws each placement in one call and the interleave a chunk per
    call.  Both arms must give the same placements and the same order.  The
    gate is the ratio of the best times, so it cancels the machine's speed.
    Like :func:`bench_cascade_kernel`, the entry fails when a C compiler is
    on ``PATH`` but the kernel did not load.
    """
    n_nodes, n_sources, requests_per_source = 1_023, 256, 120
    sources = sorted(random.Random(0).sample(range(n_nodes), n_sources))
    compiler = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
    loaded = cascade_kernel.load()
    if loaded is None:
        return {"status": "unavailable", "compiler_on_path": compiler, "ok": not compiler}

    def build():
        state._PLACEMENT_MEMO.clear()
        network = MultiSourceNetwork(n_nodes, sources=sources, base_seed=11)
        order = list(
            iter_interleaving("uniform_pairs", sources, requests_per_source, seed=11)
        )
        return network, order

    def outcome(built):
        network, order = built
        placements = [
            (tree.tree_algorithm.network._elem_at, tree.tree_algorithm.network._node_of)
            for tree in map(network.tree_of, sources)
        ]
        return placements, order

    load = cascade_kernel.load

    def python_build():
        cascade_kernel.load = lambda: None
        try:
            return build()
        finally:
            cascade_kernel.load = load

    identical = outcome(build()) == outcome(python_build())
    kernel_s, python_s = float("inf"), float("inf")
    for _ in range(2 * repeats):  # alternate, so both arms share the noise
        kernel_s = min(kernel_s, _best_seconds(build, 1, 1))
        python_s = min(python_s, _best_seconds(python_build, 1, 1))
    ratio = python_s / kernel_s
    return {
        "status": "loaded",
        "shape": {
            "n_nodes": n_nodes,
            "n_sources": n_sources,
            "requests_per_source": requests_per_source,
        },
        "rng_checks": dict(loaded.rng_checks),
        "identical": identical,
        "ms": {"python": round(python_s * 1e3, 2), "kernel": round(kernel_s * 1e3, 2)},
        "speedup_vs_python": round(ratio, 2),
        "speedup_bound": MULTISOURCE_BUILD_BOUND,
        "ok": loaded.rng_port_matches and identical and ratio >= MULTISOURCE_BUILD_BOUND,
    }


#: Upper bound on the ``tracemalloc`` peak of a 1,023-source network-plan
#: trial over the same trial with 16 sources (1,023-node Rotor-Push trees,
#: 20 requests per source).  Measured on a 2-vCPU container (Python 3.11):
#: about 6x serving source by source, about 60x with every tree alive.
NETWORK_TRIAL_MEMORY_BOUND = 10.0


def bench_network_trial_memory() -> dict:
    """Peak traced memory of one network-plan trial, 1,023 against 16 sources.

    A trial serves its sources one at a time and keeps only each source's
    cost summary, so its peak grows with the per-source specs and rows, not
    with one tree per source.  Both trials run serially in this process
    after a warm-up run; the gate is the ratio of the two
    ``tracemalloc`` peaks, which does not depend on the machine's speed.
    """
    import tracemalloc

    n_nodes, requests_per_source = 1_023, 20

    def plan(n_sources: int) -> NetworkPlan:
        sources = sorted(random.Random(0).sample(range(n_nodes), n_sources))
        workload = WorkloadSpec.create(
            "combined-locality",
            n_elements=n_nodes,
            zipf_exponent=1.4,
            repeat_probability=0.5,
        )
        return NetworkPlan(
            name=f"network_trial_memory_{n_sources}",
            traffic=TrafficSpec.create(
                n_nodes, {source: workload for source in sources}
            ),
            algorithm="rotor-push",
            config=RunConfig(n_requests=requests_per_source, n_trials=1, base_seed=3),
        )

    def peak_bytes(plan: NetworkPlan) -> int:
        tracemalloc.start()
        try:
            run_plan(plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = plan(16), plan(n_nodes)
    run_plan(few)  # warm-up: imports and the kernel load stay out of the peaks
    few_bytes, many_bytes = peak_bytes(few), peak_bytes(many)
    ratio = many_bytes / few_bytes
    return {
        "n_nodes": n_nodes,
        "requests_per_source": requests_per_source,
        "peak_mb": {
            "sources=16": round(few_bytes / 2**20, 2),
            f"sources={n_nodes}": round(many_bytes / 2**20, 2),
        },
        "ratio": round(ratio, 2),
        "ratio_bound": NETWORK_TRIAL_MEMORY_BOUND,
        "ok": ratio <= NETWORK_TRIAL_MEMORY_BOUND,
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
        lru_requests = 2_000
    else:
        serve_nodes, serve_requests, repeats = 1_023, 20_000, 3
        par_nodes, par_requests, par_trials = 1_023, 30_000, 4
        multi_nodes, multi_sources, multi_rps = 1_023, 16, 2_000
        resil_trials, resil_requests = 3, 20_000
        corpus_books, corpus_scale, corpus_requests = 3, 0.15, 30_000
        live_nodes, live_sources, live_requests, live_batch = 1_023, 4, 5_000, 16
        lru_requests = 20_000

    serve_lists = bench_serve(serve_nodes, serve_requests, repeats, "list")
    # a quarter of the tree: every chunk stays on the scalar loops and the
    # static trees' NumPy port, as a pool worker's or a live server's short
    # chunks do
    short_chunk = (serve_nodes + 1) // 4
    short_lists = bench_serve(
        serve_nodes, serve_requests, repeats, "list", chunk_size=short_chunk
    )
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
        "serve_short_chunks": short_lists,
        "serve_short_chunks_ndarray": bench_serve(
            serve_nodes,
            serve_requests,
            repeats,
            "ndarray",
            reference=short_lists,
            chunk_size=short_chunk,
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
        "cached_pool": bench_cached_pool(repeats),
        "live_serve": bench_live(
            live_nodes, live_sources, live_requests, live_batch
        ),
        "corpus_scenario": bench_corpus(
            corpus_books,
            corpus_scale,
            corpus_requests,
            max(2, os.cpu_count() or 1),
        ),
        "lru_scale": bench_lru_scale(1_023, 65_535, lru_requests, repeats),
        "cascade_kernel": bench_cascade_kernel(repeats),
        "kernel_draws": bench_kernel_draws(repeats),
        "trial_setup": bench_trial_setup(repeats),
        "multisource_build": bench_multisource_build(repeats),
        "network_trial_memory": bench_network_trial_memory(),
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
    cached_pool = report["cached_pool"]
    if not cached_pool["identical"]:
        print("ERROR: cached pool campaign diverged from the serial run", file=sys.stderr)
        return 1
    if not cached_pool["ok"]:
        print(
            f"ERROR: cold cached pool campaign took {cached_pool['ratio']}x the "
            f"serial uncached run, over the {CACHED_POOL_RATIO_BOUND}x bound",
            file=sys.stderr,
        )
        return 1
    if not report["corpus_scenario"]["deterministic"]:
        print("ERROR: parallel corpus scenario diverged from serial", file=sys.stderr)
        return 1
    if not report["live_serve"]["deterministic"]:
        print("ERROR: ingest-log replay diverged from the live session", file=sys.stderr)
        return 1
    if not report["lru_scale"]["within_bound"]:
        print(
            "ERROR: Max-Push at 65,535 nodes costs "
            f"{report['lru_scale']['max_push_scale_ratio']}x its 1,023-node "
            f"figure, over the {LRU_SCALE_RATIO_BOUND}x bound",
            file=sys.stderr,
        )
        return 1
    kernel = report["cascade_kernel"]
    if not kernel["ok"]:
        if kernel["status"] == "unavailable":
            print(
                "ERROR: a C compiler is on PATH but the cascade kernel did not load",
                file=sys.stderr,
            )
        elif not kernel["rng_port_matches"]:
            print(
                "ERROR: the cascade kernel's Mersenne Twister port disagrees "
                "with random.Random; Random-Push runs the scalar loop",
                file=sys.stderr,
            )
        else:
            print(
                "ERROR: cascade kernel speedup over the scalar loop "
                f"{kernel['speedup_vs_scalar']} (bound {KERNEL_SPEEDUP_BOUND}x) or "
                f"65,535/1,023-node ratio {kernel['scale_ratio']} "
                f"(bound {KERNEL_SCALE_RATIO_BOUND}x) out of bounds",
                file=sys.stderr,
            )
        return 1
    draws = report["kernel_draws"]
    if not draws["ok"]:
        if draws["status"] == "unavailable":
            print(
                "ERROR: a C compiler is on PATH but the cascade kernel did not load",
                file=sys.stderr,
            )
        elif not (draws["rng_port_matches"] and draws["identical"]):
            print(
                "ERROR: the cascade kernel's bulk draws disagree with random.Random",
                file=sys.stderr,
            )
        else:
            print(
                "ERROR: kernel draw speedup over the Python loops "
                f"{draws['speedup_vs_python']} under the "
                f"{KERNEL_DRAWS_SPEEDUP_BOUND}x bound",
                file=sys.stderr,
            )
        return 1
    setup = report["trial_setup"]
    if not setup["ok"]:
        if setup["lru_status"] == "unavailable" and setup["compiler_on_path"]:
            print(
                "ERROR: a C compiler is on PATH but the cascade kernel did not "
                "load, so the LRU index was not built in C",
                file=sys.stderr,
            )
        elif not (setup["memo_identical"] and setup.get("lru_identical", True)):
            print(
                "ERROR: a memo hit or the kernel's LRU build differs from a "
                "fresh build",
                file=sys.stderr,
            )
        else:
            print(
                f"ERROR: trial set-up speedups memo {setup['memo_speedup']} "
                f"(bound {TRIAL_SETUP_MEMO_BOUND}x) or LRU build "
                f"{setup.get('lru_speedup')} (bound {TRIAL_SETUP_LRU_BOUND}x) "
                "out of bounds",
                file=sys.stderr,
            )
        return 1
    build = report["multisource_build"]
    if not build["ok"]:
        if build["status"] == "unavailable":
            print(
                "ERROR: a C compiler is on PATH but the cascade kernel did not "
                "load, so the multi-source trees and interleave ran in Python",
                file=sys.stderr,
            )
        elif not (all(build["rng_checks"].values()) and build["identical"]):
            print(
                "ERROR: the kernel's seeded placements or uniform_pairs "
                f"interleave disagree with the Python loops ({build['rng_checks']})",
                file=sys.stderr,
            )
        else:
            print(
                "ERROR: multi-source build speedup over the Python loops "
                f"{build['speedup_vs_python']} under the "
                f"{MULTISOURCE_BUILD_BOUND}x bound",
                file=sys.stderr,
            )
        return 1
    memory = report["network_trial_memory"]
    if not memory["ok"]:
        print(
            f"ERROR: a {memory['n_nodes']}-source network trial peaked at "
            f"{memory['ratio']}x the memory of a 16-source trial, over the "
            f"{NETWORK_TRIAL_MEMORY_BOUND}x bound",
            file=sys.stderr,
        )
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
