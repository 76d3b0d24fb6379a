"""The crash-safe ingest log: rotation, torn tails, mid-log corruption.

The durability contract under test: a crash mid-append damages at most the
tail of the *final* segment, which the reader drops and reports (replay of
everything acknowledged before the tear still works); damage anywhere
earlier means acknowledged records are gone, which is fatal unless the
caller explicitly asks to salvage.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import ingest
from repro.serve.ingest import (
    DEFAULT_SEGMENT_BYTES,
    INGEST_FORMAT_VERSION,
    IngestError,
    IngestWriter,
    read_ingest_log,
)

HEADER = {"n_nodes": 15, "algorithm": {"name": "rotor-push"}, "base_seed": 0}


def write_records(path, records, segment_bytes=DEFAULT_SEGMENT_BYTES):
    with IngestWriter(path, HEADER, segment_bytes=segment_bytes) as writer:
        for record in records:
            writer.append(record)
    return writer


def sample_records(n_requests=20):
    records = [{"type": "bind", "source": "alpha", "source_id": 0}]
    records.extend(
        {"type": "request", "source_id": 0, "destinations": [i % 15, (i + 3) % 15]}
        for i in range(n_requests)
    )
    return records


class TestRoundtrip:
    def test_records_come_back_identical_and_in_order(self, tmp_path):
        records = sample_records()
        write_records(tmp_path / "log", records)
        log = read_ingest_log(tmp_path / "log")
        assert log.records == records
        assert log.report.records == len(records)
        assert not log.report.truncated
        assert log.report.anomalies == []

    def test_header_round_trips_with_format_version(self, tmp_path):
        write_records(tmp_path / "log", sample_records(2))
        log = read_ingest_log(tmp_path / "log")
        assert log.header["n_nodes"] == 15
        assert log.header["format_version"] == INGEST_FORMAT_VERSION

    def test_helper_views(self, tmp_path):
        records = sample_records(5)
        write_records(tmp_path / "log", records)
        log = read_ingest_log(tmp_path / "log")
        assert len(log.bind_records()) == 1
        assert len(log.request_records()) == 5


class TestRotation:
    def test_small_segments_rotate_and_preserve_order(self, tmp_path):
        records = sample_records(200)
        write_records(tmp_path / "log", records, segment_bytes=512)
        segments = sorted((tmp_path / "log").glob("segment-*.jsonl"))
        assert len(segments) > 3
        log = read_ingest_log(tmp_path / "log")
        assert log.records == records
        assert log.report.segments == len(segments)

    def test_one_record_never_splits_across_segments(self, tmp_path):
        # a record larger than segment_bytes still lands whole in one file
        big = {"type": "request", "source_id": 0, "destinations": list(range(400))}
        write_records(tmp_path / "log", [big, big], segment_bytes=64)
        log = read_ingest_log(tmp_path / "log")
        assert log.records == [big, big]


class TestRecordBytes:
    def test_lines_are_the_checksum_and_json_dumps(self, tmp_path):
        records = sample_records(3) + [
            {"type": "request", "source_id": 2**40, "destinations": [0, 14, 7, 7]},
            {"type": "bind", "source": 'say "hi" \\ \x01 café ☃', "source_id": 1},
        ]
        write_records(tmp_path / "log", records)
        lines = []
        for record in records:
            body = json.dumps(record, separators=(",", ":")).encode("utf-8")
            lines.append(ingest._checksum(body).encode("ascii") + b" " + body + b"\n")
        segments = sorted((tmp_path / "log").glob("segment-*.jsonl"))
        assert b"".join(segment.read_bytes() for segment in segments) == b"".join(lines)


class TestWriterGuards:
    def test_refuses_non_empty_directory(self, tmp_path):
        target = tmp_path / "log"
        target.mkdir()
        (target / "stray.txt").write_text("x")
        with pytest.raises(IngestError, match="not empty"):
            IngestWriter(target, HEADER)

    def test_append_after_close_raises(self, tmp_path):
        writer = write_records(tmp_path / "log", sample_records(1))
        with pytest.raises(IngestError, match="closed"):
            writer.append({"type": "bind", "source": "x", "source_id": 1})

    def test_rejects_non_positive_segment_bytes(self, tmp_path):
        with pytest.raises(IngestError, match="positive"):
            IngestWriter(tmp_path / "log", HEADER, segment_bytes=0)

    def test_records_written_counter(self, tmp_path):
        writer = write_records(tmp_path / "log", sample_records(7))
        assert writer.records_written == 8  # bind + 7 requests


class TestTornTail:
    """Crash-mid-append damage: dropped and reported, never fatal."""

    def test_garbage_tail_is_dropped_and_reported(self, tmp_path):
        records = sample_records(10)
        write_records(tmp_path / "log", records)
        segment = sorted((tmp_path / "log").glob("segment-*.jsonl"))[-1]
        with open(segment, "ab") as handle:
            handle.write(b"deadbeefdead {\"type\": torn")  # no newline: torn write
        log = read_ingest_log(tmp_path / "log")
        assert log.records == records
        assert log.report.truncated
        assert log.report.dropped == 1
        assert "invalid record" in log.report.anomalies[0]

    def test_half_written_last_record_is_dropped(self, tmp_path):
        records = sample_records(10)
        write_records(tmp_path / "log", records)
        segment = sorted((tmp_path / "log").glob("segment-*.jsonl"))[-1]
        body = segment.read_bytes()
        segment.write_bytes(body[: len(body) - 9])  # tear the final line
        log = read_ingest_log(tmp_path / "log")
        assert log.records == records[:-1]
        assert log.report.truncated

    def test_checksum_mismatch_at_tail_is_dropped(self, tmp_path):
        records = sample_records(5)
        write_records(tmp_path / "log", records)
        segment = sorted((tmp_path / "log").glob("segment-*.jsonl"))[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        # flip one byte inside the final record's JSON body
        last = bytearray(lines[-1])
        last[20] = (last[20] + 1) % 128
        segment.write_bytes(b"".join(lines[:-1]) + bytes(last))
        log = read_ingest_log(tmp_path / "log")
        assert log.records == records[:-1]
        assert log.report.dropped == 1


class TestMidLogCorruption:
    """Damage before the final segment loses acknowledged records: fatal by
    default, salvageable only on request."""

    def corrupt_first_segment(self, tmp_path):
        records = sample_records(200)
        write_records(tmp_path / "log", records, segment_bytes=512)
        segments = sorted((tmp_path / "log").glob("segment-*.jsonl"))
        assert len(segments) >= 3
        lines = segments[0].read_bytes().splitlines(keepends=True)
        segments[0].write_bytes(b"".join(lines[:2]) + b"garbage line\n" + b"".join(lines[3:]))
        return records, lines

    def test_strict_read_raises(self, tmp_path):
        self.corrupt_first_segment(tmp_path)
        with pytest.raises(IngestError, match="allow_mid_loss"):
            read_ingest_log(tmp_path / "log")

    def test_allow_mid_loss_salvages_prefix_and_reports(self, tmp_path):
        self.corrupt_first_segment(tmp_path)
        log = read_ingest_log(tmp_path / "log", allow_mid_loss=True)
        # everything after the damaged line in that segment is unreachable,
        # but later segments are still read
        assert log.records
        assert log.report.dropped > 0
        assert any("segment-000000" in anomaly for anomaly in log.report.anomalies)


class TestUnusableLogs:
    def test_missing_header_raises(self, tmp_path):
        target = tmp_path / "log"
        target.mkdir()
        with pytest.raises(IngestError, match="header.json"):
            read_ingest_log(target)

    def test_unknown_format_version_refused(self, tmp_path):
        write_records(tmp_path / "log", sample_records(1))
        header_path = tmp_path / "log" / "header.json"
        header = json.loads(header_path.read_text())
        header["format_version"] = INGEST_FORMAT_VERSION + 1
        header_path.write_text(json.dumps(header))
        with pytest.raises(IngestError, match="format version"):
            read_ingest_log(tmp_path / "log")

    def test_corrupt_header_raises(self, tmp_path):
        target = tmp_path / "log"
        target.mkdir()
        (target / "header.json").write_text("{not json")
        with pytest.raises(IngestError, match="unreadable"):
            read_ingest_log(target)
