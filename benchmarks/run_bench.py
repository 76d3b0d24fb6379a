#!/usr/bin/env python
"""Perf-trajectory benchmark: serve throughput and parallel trial scaling.

Emits ``BENCH_serve.json`` so that every perf-oriented PR can be measured
against its predecessors on the same hardware.  The measured layers:

* **serve throughput** — whole-run requests/second per algorithm on the
  microbench configuration (1,023-node tree, combined-locality workload,
  ``keep_records=False``), once per chunk type (list chunks versus the
  ``array('q')`` chunks the kernel draws), plus the streaming
  serve cost with per-request cost records kept.  Each run builds its tree
  and serves the stream as one chunk through ``serve_batch``, that is,
  through the reference ``_adjust`` in Python (a built tree never serves in
  C); and
* **chunk equivalence** — a guard that both chunk types produce identical
  totals and placements before any throughput number is trusted; and
* **parallel trial scaling** — wall-clock of ``repro.run`` on one
  :class:`repro.plans.TrialPlan` at ``n_jobs=1`` versus ``n_jobs=<cpus>``,
  together with a determinism check that both produce identical tables; and
* **fan-out payloads** — build time, pickled size and parallel dispatch
  wall-clock of spec-shipped streaming payloads, next to generating the
  same sequences in the parent and serving them whole, with a determinism
  cross-check between the two; and
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
* **live floor** — the same daemon's closed-loop round trip against a bare
  ``asyncio.BufferedProtocol`` that only decodes each frame and encodes a reply,
  with the client in its own process, gated on the ratio staying under
  :data:`LIVE_FLOOR_RATIO_BOUND`; and
* **paper-scale LRU cascades** — Max-Push and Move-Half reference serve
  cost at the paper's 65,535 nodes next to the 1,023-node figure (temporal
  workload, ``p`` = 0 and 0.9), gated on the machine-independent ratio of
  the two Max-Push figures at ``p`` = 0 staying under
  :data:`LRU_SCALE_RATIO_BOUND`; and
* **cascade kernel** — the C kernel's serve cost for Rotor-Push, Move-Half,
  Max-Push, Random-Push and Move-To-Front (one ``serve_seeded`` call on the
  tree the reference arm builds, from the same seeds) against the reference
  at 1,023 nodes (gated on
  :data:`KERNEL_SPEEDUP_BOUND`) and at 65,535 against 1,023 nodes (gated on
  :data:`KERNEL_SCALE_RATIO_BOUND`); it fails when a C compiler is on
  ``PATH`` but the kernel did not load, or loaded with its Mersenne Twister
  port disagreeing with ``random``; and
* **kernel draws** — the kernel's bulk ``random.Random`` draws (a 1,023-node
  placement shuffle, ``randrange`` and ``random()``) against the Python
  loops, gated on :data:`KERNEL_DRAWS_SPEEDUP_BOUND` and on identical
  values and generator states; and
* **Zipf draws** — 120-request chunks of a 1,023-element Zipf workload
  drawn from the shared CDF table (``searchsorted`` plus one ``tolist``)
  against the ``Generator.choice`` draw and per-element int conversion they
  replace, gated on :data:`ZIPF_DRAWS_SPEEDUP_BOUND` and on identical
  identifiers (NumPy environments only); and
* **multi-source build** — building the 256 trees of 1,023 nodes of a
  256-source network, on the Python reference loops against the kernel
  (each tree's seeded placement in one call), gated on
  :data:`MULTISOURCE_BUILD_BOUND` and on identical placements; it fails
  when a C compiler is on ``PATH`` but the kernel did not load; and
* **network trial memory** — the ``tracemalloc`` peak of one 1,023-node
  Rotor-Push network-plan trial with 1,023 sources against the same trial
  with 16 sources, gated per added source on
  :data:`NETWORK_TRIAL_GROWTH_BOUND` (a trial keeps one source tree, or one
  set of kernel buffers, alive at a time); and
* **paper-scale network trial** — one 65,535-node Rotor-Push network-plan
  trial with 1,024 combined-locality sources against the same trial with
  16, gated on their per-request time ratio,
  :data:`NETWORK_PAPER_SCALE_BOUND`; it fails when a C compiler is on
  ``PATH`` but the kernel did not load; and
* **network-plan sources** — 64 pre-generated 120-request Rotor-Push source
  streams on 1,023 nodes, each served in one kernel call with no tree object
  against its ``source_tree`` and ``serve_batch`` (the reference), gated on
  :data:`NETWORK_SOURCE_KERNEL_BOUND` and on identical columns; it fails
  when a C compiler is on ``PATH`` but the kernel did not load; and
* **workload sources** — a network-plan source's combined-locality
  workload (1,023 elements, built and drawn for 120 requests) with the
  Zipf generator, its chunks and the repeat rule on the kernel, against the
  kernel hidden (the pure-Python PCG64 reference), gated on
  :data:`WORKLOAD_SOURCE_BOUND` and on identical requests; it fails when a
  C compiler is on ``PATH`` but the kernel did not load; and
* **seeded trials** — one paper trial (1,023 nodes, 20,000 requests) of
  each of the six paper algorithms through the trial runner, built as a
  tree and served through ``serve_batch`` (the reference) against one
  seeded kernel call with no tree, gated on :data:`TRIAL_KERNEL_BOUND` and
  on identical results, plus records-mode Rotor-Push and Random-Push
  trials, gated on identical results and record columns only (their ratio
  is reported); it fails when a C compiler is on ``PATH`` but the kernel
  did not load; and
* **telemetry overhead** — the same trial fan-out timed with the real
  :class:`repro.telemetry.MetricsRegistry` versus a
  :class:`~repro.telemetry.NullRegistry` floor, gated on the always-on
  instrumentation costing under :data:`TELEMETRY_BUDGET_PCT` percent (with
  an absolute noise floor so a jittery run doesn't flap) and on both arms
  producing bit-identical results.  Each payload runs under both arms back
  to back and the gate reads the median paired difference; the fan-out is
  sized (the same in both modes) so that its floor takes about five times
  that noise floor, and a millisecond's sleep in each trial's registry
  write fails it.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick] [--out BENCH_serve.json]

``--quick`` shrinks the workload for CI smoke runs (a few seconds); the
default configuration matches the numbers recorded in ``BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import platform
import sys
import tempfile
import time
from array import array
from pathlib import Path

import pickle
import random
import shutil
import statistics
import subprocess
import threading

from repro.algorithms import cascade_kernel
from repro.algorithms.registry import (
    PAPER_ALGORITHMS,
    get_algorithm_class,
    make_algorithm,
    seeded_serving,
)
from repro.dist.framing import READ_BYTES, FrameDecoder, encode_frame
from repro.experiments import build_corpus_pipeline_plan
from repro.network import multi_source
from repro.network.multi_source import MultiSourceNetwork
from repro.network.traffic import TrafficSpec
from repro.plans import (
    NetworkPlan,
    RunConfig,
    TrialPlan,
    load_golden_plan,
    plan_with_overrides,
)
from repro.plans.execute import build_network_payloads, last_run_stats, run as run_plan
from repro.resilience import ResultStore
from repro.sim.engine import simulate
from repro.sim import engine, runner
from repro.sim.runner import SpecSource, TrialPayload, TrialRunner, execute_payloads
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.temporal import TemporalWorkload
from repro.workloads.zipf import ZipfWorkload, zipf_probabilities

try:  # only the zipf_draws entry's oracle, Generator.choice, needs NumPy
    import numpy
except ImportError:
    numpy = None

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

#: All benchmarked algorithms: the seed-baselined six plus Static-Opt (it
#: has no seed-era baseline to compare against).
ALGORITHMS = list(SEED_BASELINE_US_PER_REQUEST) + ["static-opt"]

#: Chunk types the serve arms and the equivalence guard cover here: lists
#: and ``array('q')`` buffers, in every environment.
CHUNK_TYPES = ("list", "array")


def _chunks_for(n_nodes: int, n_requests: int, chunk_type: str):
    """Materialise the benchmark stream as one ``"list"`` or ``"array"`` chunk.

    Generation happens outside the timed region; what is timed is exactly
    what a pool worker does with chunks in hand: ``run_stream`` into the
    serve path.
    """
    workload = CombinedLocalityWorkload(n_nodes, 1.4, 0.5, seed=1)
    convert = (lambda chunk: array("q", chunk)) if chunk_type == "array" else list
    return [
        convert(chunk)
        for chunk in workload.iter_requests(n_requests, n_requests)
    ]


def bench_serve(
    n_nodes: int,
    n_requests: int,
    repeats: int,
    chunk_type: str,
    reference: dict = None,
) -> dict:
    """Whole-run serve throughput per algorithm (keep_records=False, reference).

    ``reference`` (the list-chunk result, when benchmarking array chunks)
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
    """Assert list and ``array('q')`` chunks produce identical costs and placements."""
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
    """Wall-clock of one TrialPlan run at n_jobs=1 vs n_jobs=<cpus> + determinism."""
    plan = TrialPlan(
        name="bench_parallel",
        n_nodes=n_nodes,
        workload=WorkloadSpec.create(
            "combined-locality",
            n_elements=n_nodes,
            zipf_exponent=1.4,
            repeat_probability=0.5,
        ),
        algorithms=("rotor-push", "random-push", "move-half", "max-push"),
        config=RunConfig(n_requests=n_requests, n_trials=n_trials),
    )

    def timed(n_jobs: int):
        start = time.perf_counter()
        table = run_plan(plan_with_overrides(plan, n_jobs=n_jobs))
        return time.perf_counter() - start, table

    cpus = os.cpu_count() or 1
    serial_seconds, serial = timed(1)
    parallel_jobs = max(2, cpus)
    parallel_seconds, parallel = timed(parallel_jobs)
    return {
        "cpus": cpus,
        "n_trials": n_trials,
        "n_jobs_parallel": parallel_jobs,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "deterministic": serial.to_json() == parallel.to_json(),
    }


def _bench_spec_factory(n_nodes: int):
    """Per-trial spec of the combined-locality workload the fan-out benches run."""

    def factory(seed: int) -> WorkloadSpec:
        return CombinedLocalityWorkload(n_nodes, 1.4, 0.5, seed=seed).to_spec()

    return factory


def bench_fanout(n_nodes: int, n_requests: int, n_trials: int, n_jobs: int) -> dict:
    """Spec payloads' build, size and dispatch cost, against materialised serving.

    The reference generates every trial's sequence in the parent and serves
    it whole with :func:`repro.sim.engine.simulate`, serially; the gate is
    that the spec payloads dispatched on ``n_jobs`` workers return exactly
    those results.  ``sequence_bytes`` is what shipping the sequences
    instead of specs would pickle to.
    """
    algorithms = ["rotor-push", "static-oblivious"]
    factory = _bench_spec_factory(n_nodes)
    runner = TrialRunner(
        n_nodes,
        RunConfig(n_requests=n_requests, n_trials=n_trials, base_seed=1),
    )

    start = time.perf_counter()
    spec_payloads = runner.build_payloads(algorithms, runner.trial_sources(factory))
    spec_build = time.perf_counter() - start
    spec_bytes = len(pickle.dumps(spec_payloads))

    start = time.perf_counter()
    spec_results = execute_payloads(spec_payloads, n_jobs)
    spec_dispatch = time.perf_counter() - start

    start = time.perf_counter()
    sequences = [
        source.spec.build().generate(n_requests) for source in runner.trial_sources(factory)
    ]
    materialised_build = time.perf_counter() - start
    sequence_bytes = len(pickle.dumps([tuple(sequence) for sequence in sequences]))

    start = time.perf_counter()
    materialised_results = [
        simulate(
            payload.algorithm,
            sequences[payload.trial],
            n_nodes=n_nodes,
            placement_seed=payload.placement_seed,
            seed=payload.algorithm_seed,
            keep_records=payload.keep_records,
            metadata={"trial": payload.trial},
        )
        for payload in spec_payloads
    ]
    materialised_serve = time.perf_counter() - start

    identical = [result.to_dict() for result in materialised_results] == [
        result.to_dict() for result in spec_results
    ]
    return {
        "n_payloads": len(spec_payloads),
        "n_jobs": n_jobs,
        "materialised": {
            "build_seconds": round(materialised_build, 4),
            "sequence_bytes": sequence_bytes,
            "serial_serve_seconds": round(materialised_serve, 3),
        },
        "spec": {
            "build_seconds": round(spec_build, 4),
            "payload_bytes": spec_bytes,
            "dispatch_seconds": round(spec_dispatch, 3),
        },
        "bytes_ratio": round(sequence_bytes / max(1, spec_bytes), 1),
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


#: Upper bound on the closed-loop time per batch of the live-serve client
#: pattern (2 connections, batches of 16) against a ``ServeServer`` serving
#: Rotor-Push on 1,023 nodes with its ingest log on, divided by the same
#: pattern against :class:`_FloorProtocol`.  Measured on a 2-vCPU x86-64
#: container (Python 3.11), 12 runs of the ``--quick`` configuration:
#: 2.20-3.03 (floor 65-117 µs, server 196-270 µs per batch).  The asyncio
#: stream handler the ``Protocol`` server replaced: 2.94-3.48 over 10 runs.
#: With each source on a resident seeded owner instead of a built tree:
#: 2.25-2.46 over 3 runs, against 3.11-3.31 for the built trees (floor
#: 15.5-16.6 µs, server 37-38 µs against 50-51 µs per batch).  With the
#: sweep in the read callback, bound metric rows and a JSON encoder and
#: scanner built once (which the floor's server uses too): 1.88-2.68 over
#: 10 runs of ``--quick`` (floor 41-74 µs, server 96-159 µs per batch),
#: against 2.12-2.31 over 5 runs of the entry alone for the code before on
#: the same machine.  The bound stays: the two spreads overlap, so a lower
#: bound that held on every run would not fail the code before either, and
#: would only add the risk of failing on another machine.
LIVE_FLOOR_RATIO_BOUND = 4.0

#: Tree size of the live-floor comparison (the ``live_serve`` workload's).
LIVE_FLOOR_NODES = 1_023


class _FloorProtocol(asyncio.BufferedProtocol):
    """The transport floor of live serving: read into one reused buffer like
    the server, decode each frame and reply through ``encode_frame``,
    serving nothing and logging nothing."""

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.decoder = FrameDecoder()
        self.read_buffer = memoryview(bytearray(READ_BYTES))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.decoder.feed(self.read_buffer[:nbytes])
        for message in self.decoder:
            kind = message["type"]
            if kind == "request_batch":
                reply = {
                    "type": "reply",
                    "id": message["id"],
                    "source": "floor",
                    "queue_depth": 0,
                    "n": len(message["destinations"]),
                    "access_cost": 0,
                    "adjustment_cost": 0,
                }
            elif kind == "hello":
                reply = {"type": "welcome", "n_nodes": LIVE_FLOOR_NODES}
            else:
                reply = {
                    "open_session": {"type": "session"},
                    "drain": {"type": "drained"},
                    "close": {"type": "closed"},
                }[kind]
            self.transport.write(encode_frame(reply))


def _start_floor_server():
    """Run a :class:`_FloorProtocol` listener on its own loop thread; return
    its address and a function that stops it."""
    started = threading.Event()
    box: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        server = loop.run_until_complete(
            loop.create_server(_FloorProtocol, "127.0.0.1", 0)
        )
        box.update(loop=loop, port=server.sockets[0].getsockname()[1])
        started.set()
        loop.run_forever()
        server.close()
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    started.wait(10)

    def stop() -> None:
        box["loop"].call_soon_threadsafe(box["loop"].stop)
        thread.join(10)

    return f"tcp://127.0.0.1:{box['port']}", stop


#: The load-generator process of :func:`bench_live_floor`.  It opens 2
#: connections to each address, then alternates closed-loop windows between
#: the addresses: in each, both connections of one address send ``batches``
#: batches of 16, each after the previous reply.  It prints the wall seconds
#: of every window as one JSON list per address.
_CLOSED_LOOP_CLIENT = """
import json, random, sys, threading, time
from repro.serve.client import ServeClient
addresses, batches, windows = sys.argv[1:3], int(sys.argv[3]), int(sys.argv[4])
pairs = []
for address in addresses:
    pair = [ServeClient(address) for _ in range(2)]
    for index, client in enumerate(pair):
        client.open(f"src{index}")
    pairs.append(pair)
rng = random.Random(0)
pool = [[rng.randrange(pair[0].n_nodes) for _ in range(16)] for _ in range(64)]
def drive(client):
    for k in range(batches):
        client.request_batch(pool[k % len(pool)])
seconds = [[] for _ in addresses]
for _ in range(windows):
    for pair, window in zip(pairs, seconds):
        threads = [threading.Thread(target=drive, args=(c,)) for c in pair]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.append(time.perf_counter() - start)
for pair in pairs:
    for client in pair:
        client.drain()
        client.close()
print(json.dumps(seconds))
"""


def bench_live_floor(batches: int, windows: int) -> dict:
    """Live serving against its transport floor, as a machine-independent ratio.

    The client pattern of the ``live_serve`` perfbench workload (2
    connections, batches of 16, closed loop, client in its own process,
    both sides on one CPU) runs against a real ``ServeServer`` (Rotor-Push,
    1,023 nodes, ingest log on) and against :class:`_FloorProtocol`, in
    ``windows`` alternating windows of ``batches`` batches per connection.
    The ratio of the medians is what the server adds per round trip over
    decoding the frame and encoding a reply; it is gated on
    :data:`LIVE_FLOOR_RATIO_BOUND`.
    """
    from repro.serve.server import ServeServer

    paths = [str(Path(__file__).resolve().parent.parent / "src")]
    paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    client = [sys.executable, "-c", _CLOSED_LOOP_CLIENT]
    # one CPU for both sides, as in the perfbench workload: a round trip
    # then never waits for an idle virtual CPU to wake
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(affinity)})
    floor_address, stop_floor = _start_floor_server()
    try:
        with tempfile.TemporaryDirectory(prefix="bench-live-floor-") as root:
            server = ServeServer(
                n_nodes=LIVE_FLOOR_NODES,
                algorithm="rotor-push",
                log_dir=str(Path(root) / "ingest"),
            ).start()
            try:
                arguments = [floor_address, server.address, str(batches), str(windows)]
                done = subprocess.run(
                    client + arguments,
                    env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
                    capture_output=True,
                    text=True,
                    check=True,
                    timeout=600,
                )
            finally:
                server.stop()
    finally:
        stop_floor()
        if pinned:
            os.sched_setaffinity(0, affinity)
    floor, serve = (statistics.median(s) for s in json.loads(done.stdout))
    ratio = serve / floor
    window_batches = 2 * batches
    return {
        "n_nodes": LIVE_FLOOR_NODES,
        "connections": 2,
        "batch_size": 16,
        "batches_per_window": batches,
        "windows": windows,
        "floor_us_per_batch": round(floor / window_batches * 1e6, 1),
        "serve_us_per_batch": round(serve / window_batches * 1e6, 1),
        "ratio": round(ratio, 3),
        "ratio_bound": LIVE_FLOOR_RATIO_BOUND,
        "ok": ratio <= LIVE_FLOOR_RATIO_BOUND,
    }


def _serve_us_per_request(name: str, n_nodes: int, requests: list, repeats: int) -> float:
    """Best of ``repeats`` fresh serves of one chunk, records off, in µs/request.

    Each serve builds its tree outside the timed region (placement seed 7,
    algorithm seed 3) and times ``serve_batch`` on ``requests``: the
    reference ``_adjust`` on every request.
    """
    best = float("inf")
    for _ in range(repeats):
        instance = make_algorithm(
            name, n_nodes=n_nodes, placement_seed=7, seed=3, keep_records=False
        )
        start = time.perf_counter()
        instance.serve_batch(requests)
        best = min(best, time.perf_counter() - start)
    return best / len(requests) * 1e6


def _seeded_us_per_request(
    kernel, name: str, n_nodes: int, requests: list, repeats: int
) -> float:
    """Best of ``repeats`` one-shot ``serve_seeded`` calls on one chunk, in
    µs/request.

    Each call draws in C the tree :func:`_serve_us_per_request` builds, from
    the same seeds, and serves ``requests`` on it; the draw is timed too.
    """
    function = get_algorithm_class(name).kernel
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel.serve_seeded(function, n_nodes, 7, 3, (requests,))
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
    """Max-Push and Move-Half reference µs/request at two tree sizes.

    Both sizes serve the same number of temporal requests (placement seed
    7, records off) through ``serve_batch``, the reference, never the C
    kernel, so the figures bound the Python LRU index's growth.  Each is the best of
    ``repeats`` whole runs.  The ratio of the two Max-Push figures at ``p``
    = 0 cancels the machine's speed, so it is gated in CI.
    """
    results = {}
    for p in (0.0, 0.9):
        for n_nodes in (small_nodes, large_nodes):
            requests = TemporalWorkload(n_nodes, p, seed=1).generate(n_requests)
            for name in ("max-push", "move-half"):
                results[f"{name}/p={p}/n={n_nodes}"] = round(
                    _serve_us_per_request(name, n_nodes, requests, repeats), 2
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

#: Lower bound on the reference's µs/request divided by the kernel's, at
#: 1,023 nodes on one 20,000-request chunk at ``p`` = 0, for each kernel
#: algorithm.  Half the median of the smallest of the five, measured on a
#: 2-vCPU container (Python 3.11, NumPy 2.4.6, gcc -O2) over 10 ``--quick``
#: runs (median 100.3), the kernel as one ``serve_seeded`` call:
#: Rotor-Push 118-165x, Move-Half 233-375x, Max-Push 332-360x, Random-Push
#: 64-114x, Move-To-Front 161-172x.
KERNEL_SPEEDUP_BOUND = 50.0

#: Upper bound on the kernel's µs/request at 65,535 nodes divided by its
#: figure at 1,023 nodes, on 65,536-request chunks at ``p`` = 0, for each
#: kernel algorithm.  Measured on the same container: 1.4-3.0x.
KERNEL_SCALE_RATIO_BOUND = 25.0


def bench_cascade_kernel(repeats: int) -> dict:
    """The C cascade kernel against the reference, and across tree sizes.

    Both gates are ratios of two figures from one run, so they cancel the
    machine's speed: the reference's µs/request over the kernel's at
    1,023 nodes, and the kernel's µs/request at 65,535 nodes over its figure
    at 1,023 nodes.  The kernel serves only seeded trees, so its figures are
    one ``CascadeKernel.serve_seeded`` call each on the reference's tree
    and requests (:func:`_seeded_us_per_request`).  The workload is temporal
    at ``p`` = 0 (uniform) with records off.  Without a loaded kernel the
    entry reports ``"unavailable"``, which is a failure only when a C
    compiler is on ``PATH``.  A kernel whose Mersenne Twister port failed its load-time
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
        reference = _serve_us_per_request(name, small, speedup_requests, repeats)
        kernel = _seeded_us_per_request(loaded, name, small, speedup_requests, repeats)
        kernel_small, kernel_large = (
            _seeded_us_per_request(loaded, name, n_nodes, requests, repeats)
            for n_nodes, requests in scale_requests.items()
        )
        us_per_request[name] = {
            f"reference/n={small}/chunk=20000": round(reference, 3),
            f"kernel/n={small}/chunk=20000": round(kernel, 3),
            f"kernel/n={small}/chunk=65536": round(kernel_small, 3),
            f"kernel/n={large}/chunk=65536": round(kernel_large, 3),
        }
        speedup[name] = round(reference / kernel, 2)
        scale_ratio[name] = round(kernel_large / kernel_small, 2)
    return {
        "status": "loaded",
        "rng_port_matches": loaded.rng_port_matches,
        "us_per_request": us_per_request,
        "speedup_vs_reference": speedup,
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


#: Lower bound on the old Zipf chunk draw (``Generator.choice`` over the
#: probability vector, then one ``int()`` per identifier) divided by the
#: shared-table draw, per 120-request chunk of a 1,023-element workload.
#: Measured on a 2-vCPU container (Python 3.11, NumPy 2.4.6): about 4x
#: (41-48 µs against 10-12 µs per chunk).
ZIPF_DRAWS_SPEEDUP_BOUND = 2.0


def bench_zipf_draws(repeats: int) -> dict:
    """Zipf chunks from the shared CDF table against ``Generator.choice``.

    The shape of a ``multisource_256`` source's draw: 120-request chunks of
    a 1,023-element, ``a`` = 1.4 Zipf workload.  The table arm is
    :meth:`ZipfWorkload.iter_requests`; the choice arm replays the draw it
    replaced on a twin generator (same seed, same permutation).  Both arms
    must yield the same identifiers.  The gate is the ratio of the two best
    times, so it cancels the machine's speed.  Without NumPy there is no
    ``choice`` to compare against and the entry reports ``unavailable``.
    """
    if numpy is None:
        return {"status": "unavailable", "ok": True}
    np = numpy
    n, exponent, chunk, n_chunks = 1_023, 1.4, 120, 200
    probabilities = np.array(zipf_probabilities(n, exponent))

    def table_chunks():
        workload = ZipfWorkload(n, exponent, seed=5)
        return list(workload.iter_requests(chunk * n_chunks, chunk))

    def choice_chunks():
        rng = np.random.default_rng(5)
        identifier_of_rank = rng.permutation(n)
        chunks = []
        for _ in range(n_chunks):
            ranks = rng.choice(n, size=chunk, p=probabilities)
            chunks.append([int(identifier) for identifier in identifier_of_rank[ranks]])
        return chunks

    identical = [list(chunk) for chunk in table_chunks()] == choice_chunks()
    table_s, choice_s = float("inf"), float("inf")
    for _ in range(5 * repeats):  # alternate, so both arms share the noise
        table_s = min(table_s, _best_seconds(table_chunks, 1, 1))
        choice_s = min(choice_s, _best_seconds(choice_chunks, 1, 1))
    ratio = choice_s / table_s
    return {
        "status": "numpy",
        "shape": {"n_elements": n, "exponent": exponent, "chunk": chunk, "chunks": n_chunks},
        "identical": identical,
        "us_per_chunk": {
            "choice": round(choice_s / n_chunks * 1e6, 2),
            "table": round(table_s / n_chunks * 1e6, 2),
        },
        "speedup_vs_choice": round(ratio, 2),
        "speedup_bound": ZIPF_DRAWS_SPEEDUP_BOUND,
        "ok": identical and ratio >= ZIPF_DRAWS_SPEEDUP_BOUND,
    }


def _best_seconds(build, rounds: int, number: int) -> float:
    """Best per-call time of ``build`` over ``rounds`` rounds of ``number`` calls."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(number):
            build()
        best = min(best, (time.perf_counter() - start) / number)
    return best


#: Lower bound on the multi-source build (256 trees of 1,023 nodes) on the
#: Python loops divided by the same build on the kernel.  Measured on a
#: 2-vCPU container (Python 3.11, gcc -O2): 2.97-3.59x.
MULTISOURCE_BUILD_BOUND = 2.0


def bench_multisource_build(repeats: int) -> dict:
    """A 256-source network's set-up: its trees.

    The shape of the ``multisource_256`` perfbench workload: 256 sources
    drawn from 1,023 nodes, each owning a 1,023-node Rotor-Push tree whose
    placement is drawn from its own seed.  The Python arm runs with the
    kernel unloaded, so every placement is shuffled and checked by the
    Python loops; the kernel arm draws each placement in one call.  Both
    arms must give the same placements.  The gate is the ratio of the best
    times, so it cancels the machine's speed.
    Like :func:`bench_cascade_kernel`, the entry fails when a C compiler is
    on ``PATH`` but the kernel did not load.
    """
    n_nodes, n_sources = 1_023, 256
    sources = sorted(random.Random(0).sample(range(n_nodes), n_sources))
    compiler = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
    loaded = cascade_kernel.load()
    if loaded is None:
        return {"status": "unavailable", "compiler_on_path": compiler, "ok": not compiler}

    def build():
        return MultiSourceNetwork(n_nodes, sources=sources, base_seed=11)

    def outcome(network):
        return [
            (tree.tree_algorithm.network._elem_at, tree.tree_algorithm.network._node_of)
            for tree in map(network.tree_of, sources)
        ]

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
        "shape": {"n_nodes": n_nodes, "n_sources": n_sources},
        "rng_checks": dict(loaded.rng_checks),
        "identical": identical,
        "ms": {"python": round(python_s * 1e3, 2), "kernel": round(kernel_s * 1e3, 2)},
        "speedup_vs_python": round(ratio, 2),
        "speedup_bound": MULTISOURCE_BUILD_BOUND,
        "ok": loaded.rng_port_matches and identical and ratio >= MULTISOURCE_BUILD_BOUND,
    }


#: Upper bound, in bytes, on what each source beyond the 16th adds to the
#: ``tracemalloc`` peak of a network-plan trial (1,023-node Rotor-Push
#: trees, 20 requests per source): ``(peak(1,023 sources) - peak(16)) /
#: 1,007``.  It grows with the per-source specs and result rows only.
#: Measured on a 2-vCPU container (Python 3.11): 418 B while every kernel
#: source drew its own buffers and destination table, 430 B since a trial
#: serves all of them in one set of kernel buffers, and about 22 KB with
#: one set of buffers per source kept alive.  It replaces a bound on the
#: ratio of the two peaks, which every saving in a source's own set-up
#: raised.
NETWORK_TRIAL_GROWTH_BOUND = 500.0


def bench_network_trial_memory() -> dict:
    """Peak traced memory of one network-plan trial, 1,023 against 16 sources.

    A trial serves its sources one at a time and keeps only each source's
    cost summary, so its peak grows with the per-source specs and rows, not
    with one tree or one set of kernel buffers per source.  Both trials run
    serially in this process after a warm-up run; the gate is the growth of
    the ``tracemalloc`` peak per added source, which does not depend on the
    machine's speed.
    """
    import tracemalloc

    n_nodes, few_sources, requests_per_source = 1_023, 16, 20

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

    few, many = plan(few_sources), plan(n_nodes)
    run_plan(few)  # warm-up: imports and the kernel load stay out of the peaks
    few_bytes, many_bytes = peak_bytes(few), peak_bytes(many)
    growth = (many_bytes - few_bytes) / (n_nodes - few_sources)
    return {
        "n_nodes": n_nodes,
        "requests_per_source": requests_per_source,
        "peak_bytes": {
            f"sources={few_sources}": few_bytes,
            f"sources={n_nodes}": many_bytes,
        },
        "bytes_per_added_source": round(growth, 1),
        "growth_bound": NETWORK_TRIAL_GROWTH_BOUND,
        "ok": growth <= NETWORK_TRIAL_GROWTH_BOUND,
    }


#: Upper bound on the per-request time of a 65,535-node network-plan trial
#: with 1,024 sources over the same trial with 16 sources: a source's cost
#: must not grow with the number of sources.  Measured on a 2-vCPU container
#: (Python 3.11, gcc -O2): 0.8-1.0, with 0.85-0.89 ms per source at 1,024
#: sources.
NETWORK_PAPER_SCALE_BOUND = 1.5


def bench_network_paper_scale(repeats: int) -> dict:
    """A paper-scale network-plan trial, 1,024 sources against 16.

    65,535-node Rotor-Push trees fed combined-locality traffic (``a`` =
    1.4, ``p`` = 0.5, 120 requests per source), one trial run in process.
    A source's set-up is O(n) (its placement shuffle and its Zipf
    permutation) against 120 requests, so its time is what the trial costs
    per source; the gate is the per-request time at 1,024 sources over the
    one at 16, which cancels the machine's speed.  Without the kernel (or
    with a failed RNG check) a source builds its tree and draws its Zipf
    permutation in Python, which takes minutes at this size, so the entry
    reports ``unavailable`` and, like :func:`bench_cascade_kernel`, fails
    only when a C compiler is on ``PATH``.
    """
    n_nodes, requests_per_source, counts = 65_535, 120, (16, 1_024)
    compiler = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        return {"status": "unavailable", "compiler_on_path": compiler, "ok": not compiler}
    workload = WorkloadSpec.create(
        "combined-locality",
        n_elements=n_nodes,
        zipf_exponent=1.4,
        repeat_probability=0.5,
    )

    def plan(n_sources: int) -> NetworkPlan:
        sources = sorted(random.Random(1).sample(range(n_nodes), n_sources))
        return NetworkPlan(
            name=f"network_paper_scale_{n_sources}",
            traffic=TrafficSpec.create(n_nodes, {source: workload for source in sources}),
            algorithm="rotor-push",
            config=RunConfig(n_requests=requests_per_source, n_trials=1, base_seed=7),
        )

    few, many = (plan(n_sources) for n_sources in counts)
    run_plan(few)  # warm-up: the shared Zipf table and the kernel load
    seconds = {
        counts[0]: _best_seconds(lambda: run_plan(few), 2 * repeats, 1),
        counts[1]: _best_seconds(lambda: run_plan(many), 1, 1),
    }
    us_per_request = {
        n_sources: elapsed / (n_sources * requests_per_source) * 1e6
        for n_sources, elapsed in seconds.items()
    }
    ratio = us_per_request[counts[1]] / us_per_request[counts[0]]
    return {
        "status": "loaded",
        "n_nodes": n_nodes,
        "requests_per_source": requests_per_source,
        "ms_per_source": {
            f"sources={n_sources}": round(elapsed / n_sources * 1e3, 3)
            for n_sources, elapsed in seconds.items()
        },
        "us_per_request": {
            f"sources={n_sources}": round(value, 2)
            for n_sources, value in us_per_request.items()
        },
        "ratio": round(ratio, 2),
        "ratio_bound": NETWORK_PAPER_SCALE_BOUND,
        "ok": ratio <= NETWORK_PAPER_SCALE_BOUND,
    }


#: Lower bound on the tree path (``source_tree`` plus ``serve_batch``) of 64
#: pre-generated 120-request Rotor-Push source streams on 1,023 nodes divided
#: by the one-call kernel path on the same streams.  Half the median measured
#: on a 2-vCPU container (Python 3.11, NumPy 2.4.6, gcc -O2), where the
#: ratio read 13.2-13.9 over 10 ``--quick`` runs (median 13.5; about 205 µs
#: against 15 µs per source).
NETWORK_SOURCE_KERNEL_BOUND = 6.75


class _PregeneratedTraffic:
    """Source streams drawn once, replayed through ``iter_source_streams``."""

    def __init__(self, traffic: TrafficSpec, requests_per_source: int) -> None:
        self.n_nodes = traffic.n_nodes
        self.streams = [
            (source, [list(chunk) for chunk in chunks])
            for source, chunks in traffic.iter_source_streams(requests_per_source)
        ]

    def iter_source_streams(self, requests_per_source: int):
        return ((source, iter(chunks)) for source, chunks in self.streams)


def bench_network_source_kernel(repeats: int) -> dict:
    """Network-plan sources in one kernel call each, against their trees.

    The shape of a ``multisource_256`` source: a 1,023-node Rotor-Push tree
    seeded per source, fed one 120-request combined-locality chunk.  The
    streams are drawn beforehand, so both arms time only set-up and serve.
    The tree arm builds each source's ``source_tree`` (its placement still
    drawn by the kernel) and serves the chunk through ``serve_batch``,
    which runs the reference; the kernel arm is
    ``serve_source_by_source``, one ``CascadeKernel.serve_seeded`` call per
    source with no tree object.  Both must give identical columns, and the
    gate is the ratio of the best times, which cancels the machine's speed.
    Like :func:`bench_cascade_kernel`, the entry fails when a C compiler is
    on ``PATH`` but the kernel did not load.
    """
    n_nodes, n_sources, requests_per_source, base_seed = 1_023, 64, 120, 11
    compiler = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        return {
            "status": "unavailable",
            "compiler_on_path": compiler,
            "ok": not compiler,
        }
    sources = sorted(random.Random(0).sample(range(n_nodes), n_sources))
    workload = WorkloadSpec.create(
        "combined-locality",
        n_elements=n_nodes,
        zipf_exponent=1.4,
        repeat_probability=0.5,
    )
    traffic = _PregeneratedTraffic(
        TrafficSpec.create(n_nodes, {source: workload for source in sources}).with_seed(
            base_seed
        ),
        requests_per_source,
    )

    def kernel_arm():
        return multi_source.serve_source_by_source(
            traffic, requests_per_source, "rotor-push", base_seed
        )

    def tree_arm():
        return multi_source.source_columns(
            multi_source._serve_stream(
                multi_source.source_tree(n_nodes, source, "rotor-push", base_seed),
                chunks,
            )
            for source, chunks in traffic.iter_source_streams(requests_per_source)
        )

    identical = json.dumps(kernel_arm()) == json.dumps(tree_arm())
    kernel_s, tree_s = float("inf"), float("inf")
    for _ in range(2 * repeats):  # alternate, so both arms share the noise
        kernel_s = min(kernel_s, _best_seconds(kernel_arm, 3, 1))
        tree_s = min(tree_s, _best_seconds(tree_arm, 3, 1))
    ratio = tree_s / kernel_s
    return {
        "status": "loaded",
        "shape": {
            "n_nodes": n_nodes,
            "n_sources": n_sources,
            "requests_per_source": requests_per_source,
        },
        "identical": identical,
        "us_per_source": {
            "tree": round(tree_s / n_sources * 1e6, 1),
            "kernel": round(kernel_s / n_sources * 1e6, 1),
        },
        "speedup_vs_tree": round(ratio, 2),
        "speedup_bound": NETWORK_SOURCE_KERNEL_BOUND,
        "ok": identical and ratio >= NETWORK_SOURCE_KERNEL_BOUND,
    }


#: Lower bound on one network-plan source's workload (a 1,023-node
#: combined-locality generator built and drawn for 120 requests) with the
#: kernel hidden divided by the same workload on the kernel.  Half the
#: median measured on a 2-vCPU container (Python 3.11, NumPy 2.4.6,
#: gcc -O2), where the ratio read 1.63-1.83 over 10 ``--quick`` runs
#: (median 1.74; 41-63 µs against 68-115 µs per source).  The identical
#: requests are the strict half of the gate.
WORKLOAD_SOURCE_BOUND = 0.87


def bench_workload_source(repeats: int) -> dict:
    """A network-plan source's workload on the kernel, against the kernel hidden.

    The shape of a ``multisource_256`` source's traffic: a combined-locality
    generator over 1,023 elements (``a`` = 1.4, ``p`` = 0.5) built from a
    fresh seed and drawn for one 120-request chunk, for 64 seeds.  On the
    kernel the Zipf generator's state and permutation are one call, its
    chunk another, and the repeat rule a third on raw Mersenne Twister
    words; with the kernel hidden they are the pure-Python PCG64 reference
    (``repro.workloads.zipf.PCG64``: seeding, ``permutation`` and the
    ``bisect`` draws) and the ``random()`` loop.  Both arms must yield the
    same requests, and the gate is the ratio of the best times, which
    cancels the machine's speed.  Like :func:`bench_cascade_kernel` it
    fails when a C compiler is on ``PATH`` but the kernel did not load.
    """
    compiler = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
    loaded = cascade_kernel.load()
    if loaded is None:
        return {"status": "unavailable", "compiler_on_path": compiler, "ok": not compiler}
    n_elements, requests, n_sources = 1_023, 120, 64
    seeds = [random.Random(index).randrange(2**63) for index in range(n_sources)]

    def kernel_arm():
        return [
            next(
                CombinedLocalityWorkload(n_elements, 1.4, 0.5, seed=seed).iter_requests(
                    requests, requests
                )
            )
            for seed in seeds
        ]

    load = cascade_kernel.load

    def hidden_arm():
        cascade_kernel.load = lambda: None
        try:
            return kernel_arm()
        finally:
            cascade_kernel.load = load

    # the kernel arm's chunks are its array('q') buffers, the hidden arm's lists
    identical = [list(chunk) for chunk in kernel_arm()] == hidden_arm()
    kernel_s, hidden_s = float("inf"), float("inf")
    for _ in range(5 * repeats):  # alternate, so both arms share the noise
        kernel_s = min(kernel_s, _best_seconds(kernel_arm, 1, 1))
        hidden_s = min(hidden_s, _best_seconds(hidden_arm, 1, 1))
    ratio = hidden_s / kernel_s
    checks = {"draws": loaded.rng_checks.get("draws", False), "zipf": loaded.zipf_port_matches}
    return {
        "status": "loaded",
        "shape": {
            "n_elements": n_elements,
            "requests": requests,
            "sources": n_sources,
            "zipf_exponent": 1.4,
            "repeat_probability": 0.5,
        },
        "rng_checks": checks,
        "identical": identical,
        "us_per_source": {
            "hidden": round(hidden_s / n_sources * 1e6, 1),
            "kernel": round(kernel_s / n_sources * 1e6, 1),
        },
        "speedup_vs_hidden": round(ratio, 2),
        "speedup_bound": WORKLOAD_SOURCE_BOUND,
        "ok": all(checks.values()) and identical and ratio >= WORKLOAD_SOURCE_BOUND,
    }


#: Lower bound on a paper trial's tree path (``make_algorithm`` and
#: ``serve_batch``, the reference) divided by its seeded path (one
#: ``CascadeKernel.serve_seeded`` call), summed over the six paper
#: algorithms.  Half the median measured on a 2-vCPU container (Python
#: 3.11, NumPy 2.4.6, gcc -O2), where the ratio read 238-244 over 10
#: ``--quick`` runs (median 241.9).  The identical results are the strict
#: half of the gate.
TRIAL_KERNEL_BOUND = 120.0


def bench_trial_kernel(repeats: int) -> dict:
    """Paper trials in one seeded kernel call each, against their trees.

    The shape of a ``paper_sweep`` unit: a 1,023-node tree, one shared
    20,000-request temporal stream (``p`` = 0.5, one chunk, the kernel's
    ``array('q')``), and one trial payload per paper algorithm, run through the
    trial runner's body.  The stream is generated once, before the timed
    calls, as the runner's shared-source memo keeps it.  The tree arm hides
    :func:`repro.algorithms.registry.seeded_serving` from
    :func:`repro.sim.engine.simulate_stream`, so
    each trial builds its algorithm and serves through ``serve_batch``,
    which runs the reference; the seeded arm is one
    ``CascadeKernel.serve_seeded`` call per trial.  Both must return equal
    results, and the gate is the ratio of the best summed times, which
    cancels the machine's speed.  Records-mode Rotor-Push and Random-Push
    trials (Figure 5b's kind) run the same two arms as one more input: they
    must return equal results, record columns included, and their ratio is
    reported but not gated.  It fails when a C compiler is on ``PATH`` but
    the kernel did not load.
    """
    n_nodes, n_requests = 1_023, 20_000
    compiler = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        return {"status": "unavailable", "compiler_on_path": compiler, "ok": not compiler}
    source = SpecSource(
        WorkloadSpec.create(
            "temporal", n_elements=n_nodes, repeat_probability=0.5, seed=7
        ),
        n_requests,
        shared=True,
    )
    payloads = {
        name: TrialPayload(
            algorithm=name,
            source=source,
            n_nodes=n_nodes,
            placement_seed=10_007,
            algorithm_seed=20_007,
            keep_records=False,
            trial=0,
        )
        for name in PAPER_ALGORITHMS
    }
    records = {
        f"{name}+records": dataclasses.replace(payloads[name], keep_records=True)
        for name in ("rotor-push", "random-push")
    }
    payloads.update(records)

    def seeded_arm(name):
        return runner._execute_trial_body(payloads[name])

    def tree_arm(name):
        engine.seeded_serving = lambda *args: None
        try:
            return runner._execute_trial_body(payloads[name])
        finally:
            engine.seeded_serving = seeded_serving

    try:
        identical = {name: seeded_arm(name) == tree_arm(name) for name in payloads}
        seeded_s = dict.fromkeys(payloads, float("inf"))
        tree_s = dict(seeded_s)
        for _ in range(2 * repeats):  # alternate, so both arms share the noise
            for name in payloads:
                seeded_s[name] = min(
                    seeded_s[name], _best_seconds(lambda: seeded_arm(name), 3, 1)
                )
                tree_s[name] = min(
                    tree_s[name], _best_seconds(lambda: tree_arm(name), 3, 1)
                )
    finally:
        runner._shared_chunks_cache.clear()

    def ratio(names):
        return sum(tree_s[name] for name in names) / sum(seeded_s[name] for name in names)

    gated = ratio(PAPER_ALGORITHMS)
    return {
        "status": "loaded",
        "shape": {"n_nodes": n_nodes, "n_requests": n_requests, "workload": "temporal"},
        "identical": all(identical.values()),
        "ms_per_trial": {
            name: {
                "tree": round(tree_s[name] * 1e3, 3),
                "seeded": round(seeded_s[name] * 1e3, 3),
            }
            for name in payloads
        },
        "speedup_vs_tree": round(gated, 2),
        "speedup_bound": TRIAL_KERNEL_BOUND,
        "records_speedup_vs_tree": round(ratio(records), 2),
        "ok": all(identical.values()) and gated >= TRIAL_KERNEL_BOUND,
    }


#: Telemetry overhead budget: full instrumentation may cost at most this
#: fraction of the NullRegistry floor on the trial fan-out.
TELEMETRY_BUDGET_PCT = 2.0

#: Absolute wall-clock slack under which an overhead measurement is treated
#: as CI noise rather than a regression (scheduler jitter alone exceeds 2% of
#: a sub-second run).
TELEMETRY_NOISE_FLOOR_SECONDS = 0.05

#: The telemetry fan-out: 40 trials of Rotor-Push and Static-Oblivious (80
#: payloads) on 1,023 nodes.  A trial of 80,000 requests takes 5-7 ms on the
#: seeded kernel, so the floor takes 0.2-0.28 s, four to five times
#: :data:`TELEMETRY_NOISE_FLOOR_SECONDS`; the fan-out's registry writes cost
#: 12-50 us per payload (0.5-1.4%).  Payloads of the kernel era's 0.2 ms made
#: that a 4-36% "overhead", which only the noise floor hid.  Without the
#: kernel a payload serves on the Python tree path, about 100 times slower
#: per request, so it gets 700 requests.
TELEMETRY_NODES, TELEMETRY_TRIALS = 1_023, 40
TELEMETRY_REQUESTS, TELEMETRY_TREE_REQUESTS = 80_000, 700


def bench_telemetry(n_nodes: int, n_requests: int, n_trials: int, repeats: int) -> dict:
    """Instrumentation overhead: default registry vs the NullRegistry floor.

    Times every trial of a serial fan-out (its payloads share one workload
    stream) under each arm back to back, ``repeats`` times, alternating
    which arm goes first, so a burst of machine noise lands on a pair rather
    than on one arm.  Each arm keeps one registry for the whole run, as a
    process does.  The overhead per trial is the median of the paired
    differences and the floor per trial the median floor time; the
    fan-out's overhead is that median times the trial count.  The arms must
    also produce bit-identical result documents — telemetry that moves
    results is a bug regardless of its cost.
    """
    from repro.telemetry.registry import MetricsRegistry, NullRegistry, use_registry

    algorithms = ["rotor-push", "static-oblivious"]
    runner = TrialRunner(
        n_nodes,
        RunConfig(n_requests=n_requests, n_trials=n_trials, base_seed=1),
    )
    payloads = runner.build_payloads(
        algorithms, runner.trial_sources(_bench_spec_factory(n_nodes))
    )
    trials = [
        [payload for payload in payloads if payload.trial == trial]
        for trial in sorted({payload.trial for payload in payloads})
    ]
    registries = {"floor": NullRegistry(), "instrumented": MetricsRegistry()}

    floors, differences = [], []
    documents: dict = {"floor": [], "instrumented": []}
    for repeat in range(repeats):
        for index, trial in enumerate(trials):
            arms = ["floor", "instrumented"][:: -1 if (repeat + index) % 2 else 1]
            seconds = {}
            for arm in arms:
                with use_registry(registries[arm]):
                    start = time.perf_counter()
                    results = execute_payloads(trial, 1)
                    seconds[arm] = time.perf_counter() - start
                if repeat == 0:
                    documents[arm].extend(result.to_dict() for result in results)
            floors.append(seconds["floor"])
            differences.append(seconds["instrumented"] - seconds["floor"])

    floor = statistics.median(floors)
    overhead = statistics.median(differences)
    overhead_pct = overhead / floor * 100
    delta = overhead * len(trials)
    return {
        "n_nodes": n_nodes,
        "n_requests": n_requests,
        "n_payloads": len(payloads),
        "repeats": repeats,
        "floor_seconds": round(floor * len(trials), 4),
        "overhead_seconds": round(delta, 4),
        "overhead_pct": round(overhead_pct, 3),
        "overhead_us_per_payload": round(delta / len(payloads) * 1e6, 2),
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
        floor_batches, floor_windows = 200, 10
        lru_requests = 2_000
    else:
        serve_nodes, serve_requests, repeats = 1_023, 20_000, 3
        par_nodes, par_requests, par_trials = 1_023, 30_000, 4
        multi_nodes, multi_sources, multi_rps = 1_023, 16, 2_000
        resil_trials, resil_requests = 3, 20_000
        corpus_books, corpus_scale, corpus_requests = 3, 0.15, 30_000
        live_nodes, live_sources, live_requests, live_batch = 1_023, 4, 5_000, 16
        floor_batches, floor_windows = 400, 20
        lru_requests = 20_000

    serve_lists = bench_serve(serve_nodes, serve_requests, repeats, "list")
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
            "numpy": numpy.__version__ if numpy is not None else None,
        },
        "chunk_equivalence": bench_chunk_equivalence(
            serve_nodes, min(serve_requests, 5_000)
        ),
        "serve_reference": serve_lists,
        "serve_reference_array": bench_serve(
            serve_nodes, serve_requests, repeats, "array", reference=serve_lists
        ),
        "serve_with_records": bench_serve_with_records(
            serve_nodes, serve_requests, repeats, "list"
        ),
        "serve_with_records_array": bench_serve_with_records(
            serve_nodes, serve_requests, repeats, "array"
        ),
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
        "live_floor": bench_live_floor(floor_batches, floor_windows),
        "corpus_scenario": bench_corpus(
            corpus_books,
            corpus_scale,
            corpus_requests,
            max(2, os.cpu_count() or 1),
        ),
        "lru_scale": bench_lru_scale(1_023, 65_535, lru_requests, repeats),
        "cascade_kernel": bench_cascade_kernel(repeats),
        "kernel_draws": bench_kernel_draws(repeats),
        "zipf_draws": bench_zipf_draws(repeats),
        "multisource_build": bench_multisource_build(repeats),
        "network_trial_memory": bench_network_trial_memory(),
        "network_paper_scale": bench_network_paper_scale(repeats),
        "network_source_kernel": bench_network_source_kernel(repeats),
        "workload_source": bench_workload_source(repeats),
        "trial_kernel": bench_trial_kernel(repeats),
        "telemetry": bench_telemetry(
            TELEMETRY_NODES,
            TELEMETRY_REQUESTS if cascade_kernel.load() else TELEMETRY_TREE_REQUESTS,
            TELEMETRY_TRIALS,
            2,
        ),
    }

    payload = json.dumps(report, indent=2)
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        print(f"\nwrote {args.out}", file=sys.stderr)

    if not report["chunk_equivalence"]["identical"]:
        print("ERROR: array('q') chunks diverged from list chunks", file=sys.stderr)
        return 1
    if not report["parallel_trials"]["deterministic"]:
        print("ERROR: parallel run diverged from serial run", file=sys.stderr)
        return 1
    if not report["fanout_payloads"]["deterministic"]:
        print("ERROR: spec dispatch diverged from materialised serving", file=sys.stderr)
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
    live_floor = report["live_floor"]
    if not live_floor["ok"]:
        print(
            f"ERROR: a live-serve round trip took {live_floor['ratio']}x the bare "
            f"Protocol floor, over the {LIVE_FLOOR_RATIO_BOUND}x bound",
            file=sys.stderr,
        )
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
                "with random.Random; Random-Push runs the reference",
                file=sys.stderr,
            )
        else:
            print(
                "ERROR: cascade kernel speedup over the reference "
                f"{kernel['speedup_vs_reference']} (bound {KERNEL_SPEEDUP_BOUND}x) or "
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
    zipf = report["zipf_draws"]
    if not zipf["ok"]:
        if not zipf["identical"]:
            print(
                "ERROR: Zipf chunks from the shared table differ from "
                "Generator.choice",
                file=sys.stderr,
            )
        else:
            print(
                "ERROR: Zipf table-draw speedup over Generator.choice "
                f"{zipf['speedup_vs_choice']} under the "
                f"{ZIPF_DRAWS_SPEEDUP_BOUND}x bound",
                file=sys.stderr,
            )
        return 1
    build = report["multisource_build"]
    if not build["ok"]:
        if build["status"] == "unavailable":
            print(
                "ERROR: a C compiler is on PATH but the cascade kernel did not "
                "load, so the multi-source trees were built in Python",
                file=sys.stderr,
            )
        elif not (all(build["rng_checks"].values()) and build["identical"]):
            print(
                "ERROR: the kernel's seeded placements disagree with the "
                f"Python loops ({build['rng_checks']})",
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
    sources = report["network_source_kernel"]
    if not sources["ok"]:
        if sources["status"] == "unavailable":
            print(
                "ERROR: a C compiler is on PATH but the cascade kernel did not "
                "load or failed its RNG check, so network-plan sources built trees",
                file=sys.stderr,
            )
        elif not sources["identical"]:
            print(
                "ERROR: network-plan sources served in one kernel call differ "
                "from their source trees",
                file=sys.stderr,
            )
        else:
            print(
                "ERROR: one-call network-plan sources speedup over their trees "
                f"{sources['speedup_vs_tree']} under the "
                f"{NETWORK_SOURCE_KERNEL_BOUND}x bound",
                file=sys.stderr,
            )
        return 1
    workload = report["workload_source"]
    if not workload["ok"]:
        if workload["status"] == "unavailable":
            print(
                "ERROR: a C compiler is on PATH but the cascade kernel did not "
                "load, so network-plan sources drew their workloads in Python",
                file=sys.stderr,
            )
        elif not all(workload["rng_checks"].values()):
            print(
                "ERROR: the kernel's Mersenne Twister or PCG64 port disagrees "
                f"with random.Random or its Python reference ({workload['rng_checks']})",
                file=sys.stderr,
            )
        elif not workload["identical"]:
            print(
                "ERROR: combined-locality requests drawn on the kernel differ "
                "from the PCG64 reference and the random() loop",
                file=sys.stderr,
            )
        else:
            print(
                "ERROR: workload-source speedup over the kernel hidden "
                f"{workload['speedup_vs_hidden']} under the "
                f"{WORKLOAD_SOURCE_BOUND}x bound",
                file=sys.stderr,
            )
        return 1
    trials = report["trial_kernel"]
    if not trials["ok"]:
        if trials["status"] == "unavailable":
            print(
                "ERROR: a C compiler is on PATH but the cascade kernel did not "
                "load or failed its RNG check, so paper trials built trees",
                file=sys.stderr,
            )
        elif not trials["identical"]:
            print(
                "ERROR: paper trials served in one seeded kernel call differ "
                "from their trees",
                file=sys.stderr,
            )
        else:
            print(
                "ERROR: seeded paper-trial speedup over the tree path "
                f"{trials['speedup_vs_tree']} under the {TRIAL_KERNEL_BOUND}x bound",
                file=sys.stderr,
            )
        return 1
    paper_scale = report["network_paper_scale"]
    if not paper_scale["ok"]:
        if paper_scale["status"] == "unavailable":
            print(
                "ERROR: a C compiler is on PATH but the cascade kernel did not "
                "load or failed its RNG check, so the paper-scale network trial "
                "did not run",
                file=sys.stderr,
            )
        else:
            print(
                "ERROR: a 65,535-node network trial's per-request time at 1,024 "
                f"sources is {paper_scale['ratio']}x the one at 16 sources, over "
                f"the {NETWORK_PAPER_SCALE_BOUND}x bound",
                file=sys.stderr,
            )
        return 1
    memory = report["network_trial_memory"]
    if not memory["ok"]:
        print(
            f"ERROR: each source of a {memory['n_nodes']}-source network trial "
            f"added {memory['bytes_per_added_source']} B to its memory peak over "
            f"a 16-source trial, over the {NETWORK_TRIAL_GROWTH_BOUND} B bound",
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
