"""Replay determinism: live session -> ingest log -> ``repro.run`` identity.

The PR's acceptance pin.  A live server is driven by genuinely concurrent
clients, then the recorded ingest log is rebuilt into a plan and replayed —
and the replayed per-source cost table must equal the live one *exactly*
(integer totals, row for row, and byte-for-byte as rendered text), across
``n_jobs`` 1 and 4 and with or without NumPy.  Damage handling rides along: a torn
tail replays the surviving prefix with a report, mid-log corruption refuses
unless salvage is requested.
"""

from __future__ import annotations

import pytest

import repro
from repro.plans.model import plan_with_overrides
from repro.serve.client import drive_load
from repro.serve.engine import ServeEngine
from repro.serve.ingest import IngestError, IngestLogReader, IngestReport, read_ingest_log
from repro.serve.replay import build_replay_plan, replay_sequences
from repro.serve.server import ServeServer


def fake_log(records, header=None):
    return IngestLogReader(
        path="<memory>",
        header=dict(header or {}),
        records=list(records),
        report=IngestReport(segments=1, records=len(records)),
    )


class TestReplaySequences:
    def test_concatenates_batches_per_source_in_log_order(self):
        log = fake_log(
            [
                {"type": "bind", "source": "alpha", "source_id": 0},
                {"type": "request", "source_id": 0, "destinations": [1, 2]},
                {"type": "bind", "source": "beta", "source_id": 1},
                {"type": "request", "source_id": 1, "destinations": [9]},
                {"type": "request", "source_id": 0, "destinations": [3]},
            ]
        )
        assert replay_sequences(log) == [
            ("alpha", 0, [1, 2, 3]),
            ("beta", 1, [9]),
        ]

    def test_out_of_order_bind_rejected(self):
        log = fake_log([{"type": "bind", "source": "alpha", "source_id": 1}])
        with pytest.raises(IngestError, match="out of order"):
            replay_sequences(log)

    def test_request_for_unbound_source_rejected(self):
        log = fake_log([{"type": "request", "source_id": 0, "destinations": [1]}])
        with pytest.raises(IngestError, match="unbound"):
            replay_sequences(log)

    def test_unknown_record_type_rejected(self):
        log = fake_log([{"type": "mystery"}])
        with pytest.raises(IngestError, match="unknown record type"):
            replay_sequences(log)


class TestBuildReplayPlan:
    def test_incomplete_header_raises(self):
        log = fake_log([], header={"n_nodes": 63})
        with pytest.raises(IngestError, match="incomplete header"):
            build_replay_plan(log)

    def test_silent_sources_get_no_stage(self):
        log = fake_log(
            [
                {"type": "bind", "source": "silent", "source_id": 0},
                {"type": "bind", "source": "busy", "source_id": 1},
                {"type": "request", "source_id": 1, "destinations": [4, 5]},
            ],
            header={
                "n_nodes": 63,
                "algorithm": {"name": "rotor-push"},
                "base_seed": 0,
            },
        )
        plan = build_replay_plan(log)
        assert [key for key, _stage in plan.stages] == ["busy"]


@pytest.fixture(scope="module")
def live_session(tmp_path_factory):
    """One live run shared by every determinism test: server + concurrent
    clients + the recorded log + the live cost table."""
    log_dir = tmp_path_factory.mktemp("serve") / "ingest"
    server = ServeServer(
        n_nodes=63,
        algorithm="rotor-push",
        base_seed=11,
        log_dir=str(log_dir),
        queue_limit=8,
    ).start()
    try:
        totals = drive_load(
            server.address,
            ["alpha", "beta", "gamma"],
            n_requests=90,
            batch_size=7,
            seed=3,
        )
        live_table = server.engine.cost_table()
    finally:
        server.stop()
    return {
        "log_dir": log_dir,
        "live_table": live_table,
        "client_totals": totals,
    }


class TestReplayIdentity:
    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_replay_matches_live_exactly(self, live_session, n_jobs):
        plan = build_replay_plan(read_ingest_log(live_session["log_dir"]))
        replayed = repro.run(plan_with_overrides(plan, n_jobs=n_jobs))
        live = live_session["live_table"]
        assert replayed.rows == live.rows
        assert replayed.format_text() == live.format_text()

    def test_client_reply_totals_equal_replayed_rows(self, live_session):
        plan = build_replay_plan(read_ingest_log(live_session["log_dir"]))
        replayed = repro.run(plan)
        rows = {row["source"]: row for row in replayed.rows}
        for source, accumulated in live_session["client_totals"].items():
            assert rows[source]["n_requests"] == accumulated["n"]
            assert rows[source]["total_access_cost"] == accumulated["access_cost"]
            assert (
                rows[source]["total_adjustment_cost"]
                == accumulated["adjustment_cost"]
            )

    @pytest.mark.parametrize("legacy_header", [{}, {"backend": "array"}])
    def test_replay_from_engine_log_without_a_server(self, tmp_path, legacy_header):
        """The identity holds at the engine layer too, with interleaved
        multi-source traffic written through a deliberately tiny segment
        size so the replay crosses many rotated segments.  Logs recorded by
        older servers carry a ``backend`` header key; replay ignores it."""
        from repro.serve.ingest import IngestWriter

        engine = ServeEngine(
            63,
            "rotor-push",
            base_seed=5,
            log=IngestWriter(
                tmp_path / "log",
                {
                    "n_nodes": 63,
                    "algorithm": {"name": "rotor-push"},
                    "base_seed": 5,
                    **legacy_header,
                },
                segment_bytes=256,
            ),
        )
        import random

        rng = random.Random(42)
        for source in ("a", "b"):
            engine.bind(source)
        for _ in range(80):
            source = rng.choice(("a", "b"))
            engine.submit(source, [rng.randrange(63) for _ in range(3)])
        engine.log.close()
        live = engine.cost_table()
        log = read_ingest_log(tmp_path / "log")
        assert log.report.segments > 3  # rotation actually happened
        assert log.header.get("backend") == legacy_header.get("backend")
        replayed = repro.run(build_replay_plan(log))
        assert replayed.rows == live.rows
        assert replayed.format_text() == live.format_text()


class TestDamagedLogReplay:
    def make_log(self, tmp_path):
        engine = ServeEngine(63, "rotor-push")
        from repro.serve.ingest import IngestWriter

        engine.log = IngestWriter(
            tmp_path / "log",
            {
                "n_nodes": 63,
                "algorithm": {"name": "rotor-push"},
                "base_seed": 0,
            },
        )
        engine.bind("alpha")
        for start in range(0, 40, 4):
            engine.submit("alpha", [d % 63 for d in range(start, start + 4)])
        engine.log.close()
        return engine.cost_table()

    def test_torn_tail_replays_the_acknowledged_prefix(self, tmp_path):
        self.make_log(tmp_path)
        segment = sorted((tmp_path / "log").glob("segment-*.jsonl"))[-1]
        body = segment.read_bytes()
        segment.write_bytes(body[:-11])  # crash-torn final record
        log = read_ingest_log(tmp_path / "log")
        assert log.report.truncated
        # the last accepted batch is gone; everything before it replays
        replayed = repro.run(build_replay_plan(log))
        assert replayed.rows[-1]["n_requests"] == 36

    def test_mid_log_corruption_is_fatal_unless_salvaged(self, tmp_path):
        self.make_log(tmp_path)
        # split the single segment into two so damage is non-final
        log_root = tmp_path / "log"
        segment = log_root / "segment-000000.jsonl"
        lines = segment.read_bytes().splitlines(keepends=True)
        # line 6 (the fifth request) is destroyed; later requests moved to a
        # second segment, so the damage sits before the final segment
        segment.write_bytes(b"".join(lines[:5]) + b"garbage\n")
        (log_root / "segment-000001.jsonl").write_bytes(b"".join(lines[6:]))
        with pytest.raises(IngestError, match="allow_mid_loss"):
            read_ingest_log(log_root)
        salvaged = read_ingest_log(log_root, allow_mid_loss=True)
        assert salvaged.report.dropped == 1
        replayed = repro.run(build_replay_plan(salvaged))
        # bind + 9 of the 10 accepted batches survive (4 requests each)
        assert replayed.rows[-1]["n_requests"] == 36
