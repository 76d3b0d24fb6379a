"""Crash-safe, segment-rotated ingest log for the live serve daemon.

The log is a directory::

    <log>/header.json        # written atomically (temp + os.replace)
    <log>/segment-000000.jsonl
    <log>/segment-000001.jsonl
    ...

``header.json`` pins everything replay needs to rebuild the engine exactly:
the tree size, the algorithm spec, the base seed and the format version.
Keys replay does not read (the retired ``backend`` of older logs) are
ignored.  It is written atomically (temp file + ``os.replace``), so a crash
during creation can never leave a half-header under the final name.

Segments are append-only JSONL; every line is ``<sha256-prefix> <json>`` so
each record is self-verifying.  A crash mid-append leaves at most one torn
line at the tail of the *last* segment — the reader detects it (checksum or
JSON failure), drops the tail, and reports it in the
:class:`IngestReport` instead of failing: replay of every acknowledged
record before the tear still works.  Corruption in a *non-final* segment is
different — records after it were acknowledged to clients and silently
skipping them would make replay diverge — so that raises
:class:`~repro.serve.engine.ServeError` unless ``strict=False`` readers
asked to salvage (``allow_mid_loss=True``).

Records are dictionaries with a ``"type"`` key, mirroring the wire frames:

* ``{"type": "bind", "source": name, "source_id": k}`` — a source was bound
  (source ids are assigned in deterministic first-bind order);
* ``{"type": "request", "source_id": k, "destinations": [...]}`` — one
  accepted batch, in engine acceptance order.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import ExperimentError
from repro.telemetry.registry import MetricsRegistry, default_registry

__all__ = [
    "INGEST_FORMAT_VERSION",
    "DEFAULT_SEGMENT_BYTES",
    "IngestError",
    "IngestLogReader",
    "IngestReport",
    "IngestWriter",
    "read_ingest_log",
]

#: Bumped when the record or header layout changes; readers refuse unknown
#: versions instead of misinterpreting them.
INGEST_FORMAT_VERSION = 1

#: Rotate to a new segment once the current one exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 4 << 20

_HEADER_FILE = "header.json"
_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"
_CHECKSUM_CHARS = 12

#: ``json.dumps(record, separators=(",", ":"))`` without building a new
#: encoder per record: the same bytes.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


class IngestError(ExperimentError):
    """Raised for unusable ingest logs (missing, version-mismatched, or
    corrupted in a way that would make replay silently diverge)."""


def _checksum(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()[:_CHECKSUM_CHARS]


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"


def _atomic_write_json(path: Path, document: Dict[str, object]) -> None:
    """Write ``document`` to ``path`` atomically (temp file + ``os.replace``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    body = json.dumps(document, indent=2, sort_keys=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class IngestWriter:
    """Appends records to a new ingest log, rotating segments by size.

    Creating the writer writes ``header.json`` atomically; :meth:`append`
    encodes, checksums and appends one record line; :meth:`flush` pushes
    buffered lines to the OS (called by the server after every accepted
    batch, and with ``sync=True`` on drain/shutdown for durability).
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: Dict[str, object],
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        if segment_bytes <= 0:
            raise IngestError(f"segment_bytes must be positive, got {segment_bytes}")
        self.path = Path(path)
        self.segment_bytes = segment_bytes
        if self.path.exists() and any(self.path.iterdir()):
            raise IngestError(f"ingest log directory {self.path} is not empty")
        document = dict(header)
        document["format_version"] = INGEST_FORMAT_VERSION
        _atomic_write_json(self.path / _HEADER_FILE, document)
        self._segment_index = 0
        self._segment_size = 0
        self._handle = open(self.path / _segment_name(0), "ab")
        self.records_written = 0
        if registry is None:
            registry = default_registry()
        self._m_bytes = registry.counter(
            "repro_ingest_bytes_total", "Bytes appended to the ingest log."
        )
        self._m_records = registry.counter(
            "repro_ingest_records_total", "Records appended to the ingest log."
        )
        self._m_rotations = registry.counter(
            "repro_ingest_rotations_total", "Ingest log segment rotations."
        )

    def append(self, record: Dict[str, object]) -> None:
        """Append one record (rotating to a fresh segment when full)."""
        if self._handle is None:
            raise IngestError(f"ingest log {self.path} is closed")
        body = _encode_json(record).encode("utf-8")
        line = _checksum(body).encode("ascii") + b" " + body + b"\n"
        if self._segment_size and self._segment_size + len(line) > self.segment_bytes:
            self._rotate()
        self._handle.write(line)
        self._segment_size += len(line)
        self.records_written += 1
        self._m_bytes.inc(len(line))
        self._m_records.inc()

    def _rotate(self) -> None:
        self.flush(sync=True)
        self._handle.close()
        self._segment_index += 1
        self._segment_size = 0
        self._handle = open(self.path / _segment_name(self._segment_index), "ab")
        self._m_rotations.inc()

    def flush(self, sync: bool = False) -> None:
        """Flush buffered lines; ``sync=True`` additionally fsyncs."""
        if self._handle is None:
            return
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""
        if self._handle is None:
            return
        self.flush(sync=True)
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "IngestWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


@dataclass
class IngestReport:
    """What reading an ingest log observed beyond the records themselves."""

    segments: int = 0
    records: int = 0
    #: Lines dropped from the torn tail of the final segment (0 = clean).
    dropped: int = 0
    #: Human-readable descriptions of every anomaly encountered.
    anomalies: List[str] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        """True when a torn tail was detected and dropped."""
        return self.dropped > 0


@dataclass
class IngestLogReader:
    """A fully-read ingest log: header, records, and the read report."""

    path: Path
    header: Dict[str, object]
    records: List[Dict[str, object]]
    report: IngestReport

    def bind_records(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == "bind"]

    def request_records(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == "request"]


def _segment_paths(path: Path) -> List[Path]:
    return sorted(path.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))


def _read_segment(path: Path) -> Tuple[List[Dict[str, object]], List[int]]:
    """Return (valid records, 1-based line numbers of invalid lines).

    Validation stops at the first invalid line: everything after a tear is
    unreachable for replay anyway (the record count in between is unknown).
    """
    records: List[Dict[str, object]] = []
    bad: List[int] = []
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.rstrip(b"\n")
            if not line:
                continue
            checksum, _, body = line.partition(b" ")
            if len(checksum) != _CHECKSUM_CHARS or _checksum(body) != checksum.decode(
                "ascii", "replace"
            ):
                bad.append(number)
                break
            try:
                record = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                bad.append(number)
                break
            if not isinstance(record, dict) or "type" not in record:
                bad.append(number)
                break
            records.append(record)
        remainder = sum(1 for raw in handle if raw.strip())
        if bad:
            bad.extend(range(bad[0] + 1, bad[0] + 1 + remainder))
    return records, bad


def read_ingest_log(
    path: Union[str, Path], allow_mid_loss: bool = False
) -> IngestLogReader:
    """Read an ingest log directory, tolerating a torn tail.

    A torn or corrupt tail in the *final* segment — the only damage a crash
    mid-append can cause — is dropped and reported via the returned
    :class:`IngestReport`, never fatal.  Corruption in an earlier segment
    means acknowledged records are unrecoverable, so it raises
    :class:`IngestError` unless ``allow_mid_loss=True`` explicitly asks to
    salvage what precedes the damage (the loss is still reported).
    """
    root = Path(path)
    header_path = root / _HEADER_FILE
    if not header_path.is_file():
        raise IngestError(f"not an ingest log (no {_HEADER_FILE}): {root}")
    try:
        header = json.loads(header_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise IngestError(f"unreadable ingest header {header_path}: {error}") from None
    version = header.get("format_version")
    if version != INGEST_FORMAT_VERSION:
        raise IngestError(
            f"ingest log {root} has format version {version!r}, "
            f"this reader understands {INGEST_FORMAT_VERSION}"
        )
    segments = _segment_paths(root)
    report = IngestReport(segments=len(segments))
    records: List[Dict[str, object]] = []
    for index, segment in enumerate(segments):
        segment_records, bad = _read_segment(segment)
        if bad:
            message = (
                f"segment {segment.name}: invalid record at line {bad[0]}; "
                f"dropped {len(bad)} line(s)"
            )
            if index != len(segments) - 1 and not allow_mid_loss:
                raise IngestError(
                    f"ingest log {root} is corrupt before its tail ({message}); "
                    "acknowledged records are missing — pass "
                    "allow_mid_loss=True to salvage what precedes the damage"
                )
            report.anomalies.append(message)
            report.dropped += len(bad)
        records.extend(segment_records)
    report.records = len(records)
    return IngestLogReader(path=root, header=header, records=records, report=report)
