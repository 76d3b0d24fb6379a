"""What a fixed live-serve session leaves in its registry and tracer.

The daemon writes its per-batch metrics through rows bound once.  That may
not change what an operator sees: the snapshot below is the one the daemon
wrote when every write resolved its labels per call (timing sums and bucket
spreads aside), and every span ID is ``span_id("serve", source, seq)``.
"""

from __future__ import annotations

import random

import pytest

from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.telemetry.registry import DEFAULT_BUCKETS, MetricsRegistry
from repro.telemetry.trace import Tracer, span_id

SOURCES = ("alpha", "beta")
BATCHES = 7


def counter(help_text, value=None):
    values = [] if value is None else [{"labels": {}, "value": value}]
    return {"help": help_text, "labels": [], "values": values}


def histogram(help_text, count):
    row = {"labels": {}, "counts": count, "sum": None, "count": count}
    return {"help": help_text, "labels": [], "buckets": list(DEFAULT_BUCKETS), "values": [row]}


#: The registry snapshot of :func:`served_session`, histogram rows reduced
#: to their observation counts.
EXPECTED_SNAPSHOT = {
    "counters": {
        "repro_ingest_bytes_total": counter("Bytes appended to the ingest log.", 1506),
        "repro_ingest_records_total": counter("Records appended to the ingest log.", 16),
        "repro_ingest_rotations_total": counter("Ingest log segment rotations."),
        "repro_serve_batches_total": counter("Batches served to completion.", 14),
        "repro_serve_busy_total": counter(
            "Requests rejected with busy backpressure (queue full)."
        ),
        "repro_serve_requests_total": counter("Destinations served.", 177),
    },
    "gauges": {
        "repro_serve_queue_depth": {
            "help": "Pending batches per bound session.",
            "labels": ["source"],
            "values": [
                {"labels": {"source": "alpha"}, "value": 0},
                {"labels": {"source": "beta"}, "value": 0},
            ],
        },
        "repro_serve_sessions": counter("Sessions bound to a source.", 2),
    },
    "histograms": {
        "repro_serve_latency_seconds": histogram(
            "Enqueue-to-reply latency of served batches.", 14
        ),
        "repro_serve_queue_wait_seconds": histogram(
            "Time a batch waits in its session queue before the engine pops it.", 14
        ),
    },
}


@pytest.fixture()
def served_session(tmp_path):
    """Serve two sources 7 batches each, one after the other, logged."""
    registry, tracer = MetricsRegistry(), Tracer()
    server = ServeServer(
        n_nodes=63,
        algorithm="rotor-push",
        log_dir=str(tmp_path / "log"),
        registry=registry,
        tracer=tracer,
    ).start()
    rng = random.Random(5)
    try:
        for source in SOURCES:
            with ServeClient(server.address) as client:
                client.open(source)
                for _ in range(BATCHES):
                    size = rng.randint(1, 20)
                    client.request_batch([rng.randrange(63) for _ in range(size)])
                client.drain()
    finally:
        server.stop()
    return registry, tracer


def test_the_snapshot_is_unchanged_but_for_timings(served_session):
    registry, _ = served_session
    snapshot = registry.snapshot()
    for family in snapshot["histograms"].values():
        for row in family["values"]:
            assert sum(row["counts"]) == row["count"]
            assert row["sum"] > 0
            row["counts"], row["sum"] = sum(row["counts"]), None
    assert snapshot == EXPECTED_SNAPSHOT


def test_batch_span_ids_are_the_serve_keys(served_session):
    _, tracer = served_session
    first = tracer.dump()
    expected = [span_id("serve", source, seq) for source in SOURCES for seq in range(BATCHES)]
    assert [span["name"] for span in first["spans"]] == ["serve.batch"] * len(expected)
    assert [span["id"] for span in first["spans"]] == expected
    assert [span.id for span in tracer.spans()] == expected
    assert tracer.dump() == first
