"""Byte-identity pins: telemetry is observational, results never move.

These integration pins run the serve replay loop and the distributed
executor with metrics fully enabled (registry, tracer, snapshot writer in
the serve log directory) and assert the results are byte-identical to the
uninstrumented serial path.  They serve list chunks only, so they pin the
same bytes in both CI legs (with and without NumPy).
"""

from __future__ import annotations

import repro
from repro.algorithms.registry import AlgorithmSpec
from repro.dist.coordinator import DistributedExecutor
from repro.dist.protocol import ExecutorSpec
from repro.dist.worker import WorkerServer
from repro.plans import plan_with_overrides
from repro.resilience import ResilienceStats
from repro.resilience.store import result_to_dict
from repro.serve.client import drive_load
from repro.serve.ingest import read_ingest_log
from repro.serve.replay import build_replay_plan
from repro.serve.server import ServeServer
from repro.sim.parallel import map_ordered
from repro.sim.runner import SpecSource, TrialPayload, _execute_trial
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.telemetry.snapshots import MetricsSnapshotWriter
from repro.telemetry.trace import Tracer, use_tracer
from repro.workloads.spec import WorkloadSpec


def run_distributed(payloads, address, **knobs):
    """Fan ``payloads`` out with the fleet at ``address`` as the first rung."""
    fleet = DistributedExecutor(ExecutorSpec.parse(address))
    return map_ordered(_execute_trial, payloads, fleet=fleet, **knobs)


def make_payloads(n: int = 4):
    spec = WorkloadSpec.create(
        "combined-locality", n_elements=15, zipf_exponent=1.4, repeat_probability=0.4
    )
    return [
        TrialPayload(
            algorithm=AlgorithmSpec.coerce("rotor-push"),
            source=SpecSource(spec.with_seed(trial), n_requests=60),
            n_nodes=15,
            placement_seed=100 + trial,
            algorithm_seed=200 + trial,
            keep_records=False,
            trial=trial,
        )
        for trial in range(n)
    ]


class TestServeReplayIdentityWithMetrics:
    def test_replay_matches_live_with_metrics_and_snapshots(self, tmp_path):
        log_dir = tmp_path / "ingest"
        registry = MetricsRegistry()
        tracer = Tracer(capacity=64)
        server = ServeServer(
            n_nodes=63,
            algorithm="rotor-push",
            base_seed=11,
            log_dir=str(log_dir),
            queue_limit=8,
            registry=registry,
            tracer=tracer,
        ).start()
        try:
            # the snapshot stream lives beside the ingest segments, exactly
            # where run_serve --log-dir puts it
            snapshots = MetricsSnapshotWriter(
                log_dir / "metrics.jsonl", interval=3600.0, registry=registry
            ).start()
            drive_load(
                server.address,
                ["alpha", "beta"],
                n_requests=40,
                batch_size=7,
                seed=3,
            )
            live_table = server.engine.cost_table()
            snapshots.stop()
        finally:
            server.stop()

        # the instrumentation actually fired...
        assert registry.counter("repro_serve_requests_total").total() == 80
        assert registry.histogram("repro_serve_latency_seconds").count() > 0
        assert len(tracer) > 0
        assert (log_dir / "metrics.jsonl").exists()

        # ...and the replay (metrics.jsonl sitting in the log dir) is
        # byte-identical to the live run
        replayed = repro.run(build_replay_plan(read_ingest_log(log_dir)))
        assert replayed.rows == live_table.rows
        assert replayed.format_text() == live_table.format_text()

    def test_replay_itself_is_metrics_invariant(self, tmp_path):
        log_dir = tmp_path / "ingest"
        server = ServeServer(
            n_nodes=31, algorithm="rotor-push", base_seed=5, log_dir=str(log_dir)
        ).start()
        try:
            drive_load(server.address, ["alpha"], n_requests=30, batch_size=5, seed=1)
        finally:
            server.stop()
        plan = build_replay_plan(read_ingest_log(log_dir))
        baseline = repro.run(plan_with_overrides(plan, n_jobs=1))
        with use_registry(MetricsRegistry()), use_tracer(Tracer(capacity=32)):
            instrumented = repro.run(plan_with_overrides(plan, n_jobs=1))
        assert instrumented.rows == baseline.rows
        assert instrumented.format_text() == baseline.format_text()


class TestDistSerialIdentityWithMetrics:
    def test_distributed_matches_serial_with_metrics(self):
        payloads = make_payloads(4)
        serial = [result_to_dict(_execute_trial(payload)) for payload in payloads]

        registry = MetricsRegistry()
        tracer = Tracer(capacity=64)
        worker = WorkerServer(registry=registry, tracer=tracer).start()
        try:
            with use_registry(registry), use_tracer(tracer):
                stats = ResilienceStats(registry=registry)
                results = run_distributed(
                    payloads,
                    f"tcp://{worker.host}:{worker.port}",
                    stats=stats,
                )
        finally:
            worker.stop()

        assert [result_to_dict(result) for result in results] == serial
        assert stats.remote_executed == 4
        # the instrumentation fired on both sides of the wire
        assert registry.counter("repro_worker_results_total").total() == 4
        assert registry.counter("repro_dist_leases_total").total() >= 4
        assert registry.histogram("repro_worker_lease_seconds").count() == 4
        span_names = {span.name for span in tracer.spans()}
        assert "worker.lease" in span_names
        assert "dist.lease" in span_names

    def test_worker_and_coordinator_agree_on_span_ids(self):
        payloads = make_payloads(2)
        registry = MetricsRegistry()
        tracer = Tracer(capacity=64)
        worker = WorkerServer(registry=registry, tracer=tracer).start()
        try:
            with use_registry(registry), use_tracer(tracer):
                run_distributed(payloads, f"tcp://{worker.host}:{worker.port}")
        finally:
            worker.stop()
        by_name: dict = {}
        for span in tracer.spans():
            by_name.setdefault(span.name, set()).add(span.id)
        # the deterministic payload-key IDs join across the wire
        assert by_name["worker.lease"] == by_name["dist.lease"]
