"""Content-addressed, crash-safe result store for trial checkpoints.

Every trial result in this repo is a pure function of its payload content:
seeds are derived from the trial index alone, specs rebuild generators in
their pristine state, and worker counts are bit-identical throughput
knobs.  :func:`payload_key` hashes exactly the payload fields that determine
the result — and deliberately *not* the throughput knobs — so a cache entry
written under ``--jobs 4`` is a valid hit for a serial re-run, and an
incrementally-extended campaign (more trials, more sweep points) re-uses
every unchanged payload's entry even though the plan hash changed.

:class:`ResultStore` appends every entry as one self-verifying record,
``repro-result 2 <key> <bytes> <sha256>``, a newline, the canonical-JSON
body and a newline, to a segment file under a root directory (default
``.repro-cache/``).  A store instance creates its own
``<root>/seg-<unique>.log`` on its first :meth:`~ResultStore.put`, holds an
exclusive ``flock`` on it while open and appends with one ``write`` per
record, so one ``repro.run`` writes one segment and concurrent runs never
share a file.  Any length or checksum mismatch is a logged *miss* — the
executor re-runs the trial; corruption is never fatal — and so is a torn
record (a last write cut short by a crash).  Records are never rewritten in
place and a later record for a key wins, so a re-put heals a corrupt one;
only :meth:`~ResultStore.prune` rewrites a segment, never one a live writer
holds.  Durability: a record survives the death of its writer, ``SIGKILL``
included, once ``put`` has returned; nothing is fsynced, so a power loss
may lose recent records, which a resume re-runs.  Files of the older
one-file-per-entry layout (``<root>/<xx>/<key>.json``, ``.*.tmp``) are
never read; ``prune`` deletes them.

:func:`plan_hash` complements the per-payload keys with a whole-plan content
hash (throughput knobs normalised away) for provenance and campaign-level
identity.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.algorithms.base import RunResult
from repro.constants import DEFAULT_CACHE_DIR
from repro.core.cost import RequestRecordColumns
from repro.exceptions import ExperimentError

if False:  # pragma: no cover - import-time hint only (cycle: runner imports us)
    from repro.sim.runner import TrialPayload

__all__ = [
    "ResultStore",
    "DEFAULT_CACHE_DIR",
    "payload_key",
    "plan_hash",
]

logger = logging.getLogger("repro.resilience")

#: Magic + format version of record headers; bumping the version invalidates
#: every existing record (scans skip unknown headers, so reads miss).
_MAGIC = "repro-result"
_FORMAT = 2

#: Where a key's latest complete record lives: segment, body offset, body
#: length and the body's SHA-256.  Bodies themselves are never indexed.
_Entry = Tuple[Path, int, int, str]


#: What ``json.dumps(data, sort_keys=True, separators=(",", ":"),
#: default=repr)`` builds on every call, built once.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=repr)


def _canonical_json(data: object) -> str:
    """Serialise to the one canonical byte form hashes are computed over."""
    return _CANONICAL_ENCODER.encode(data)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _source_fingerprint(source: object) -> Dict[str, object]:
    """The result-determining content of a payload's workload half.

    ``shared`` is a memoisation hint (it changes no request), so it is
    deliberately absent.
    """
    from repro.sim.runner import (  # lazy: runner imports resilience
        AdversarySource,
        SpecSource,
        TrafficSource,
    )

    if isinstance(source, SpecSource):
        return {
            "type": "spec",
            "spec": source.spec.to_dict(),
            "n_requests": source.n_requests,
        }
    if isinstance(source, TrafficSource):
        return {
            "type": "traffic",
            "traffic": source.traffic.to_dict(),
            "requests_per_source": source.requests_per_source,
        }
    if isinstance(source, AdversarySource):
        return {
            "type": "adversary",
            "adversary": source.adversary.to_dict(),
            "n_requests": source.n_requests,
        }
    raise ExperimentError(f"unknown workload source type: {source!r}")


def payload_key(payload: TrialPayload) -> str:
    """Content hash of everything that determines a payload's result.

    Included: the algorithm spec, the workload source content, tree size,
    seeds, trial index, record mode and metadata.  Excluded: the ``shared``
    hint and the test-only fault field — both result-free, so results
    cached under one configuration are hits under every other.
    """
    fingerprint = {
        "algorithm": payload.algorithm.to_dict(),
        "source": _source_fingerprint(payload.source),
        "n_nodes": payload.n_nodes,
        "placement_seed": payload.placement_seed,
        "algorithm_seed": payload.algorithm_seed,
        "keep_records": payload.keep_records,
        "trial": payload.trial,
        "metadata": payload.metadata,
    }
    return _sha256(_canonical_json(fingerprint))


def plan_hash(plan: object) -> str:
    """Content hash of a plan with the throughput knobs normalised away.

    Two plans that differ only in ``n_jobs``/``cache_dir``/
    ``worker_timeout``/``max_retries``/``executor`` produce identical
    results, so they hash identically; anything that changes a result byte
    (seeds, sizes, specs, stages) changes the hash.
    """
    from repro.plans.io import plan_to_dict  # lazy: plans imports resilience

    def normalise(node: object) -> object:
        if isinstance(node, dict):
            scrubbed = {
                key: normalise(value)
                for key, value in node.items()
                if key
                not in (
                    "n_jobs",
                    "cache_dir",
                    "worker_timeout",
                    "max_retries",
                    "executor",
                )
            }
            return scrubbed
        if isinstance(node, list):
            return [normalise(item) for item in node]
        return node

    return _sha256(_canonical_json(normalise(plan_to_dict(plan))))


def _records_to_columns(records: RequestRecordColumns) -> Dict[str, List[int]]:
    """The three integer columns of per-request records, as JSON lists."""
    return {
        "elements": list(records.elements),
        "levels": list(records.levels),
        "swaps": list(records.swaps),
    }


def result_to_dict(result: RunResult) -> Dict[str, object]:
    """JSON-friendly form of a :class:`~repro.algorithms.base.RunResult`."""
    document: Dict[str, object] = {
        "algorithm": result.algorithm,
        "n_nodes": result.n_nodes,
        "n_requests": result.n_requests,
        "total_access_cost": result.total_access_cost,
        "total_adjustment_cost": result.total_adjustment_cost,
        "metadata": result.metadata,
    }
    if len(result.per_request):
        document["per_request"] = _records_to_columns(result.per_request)
    return document


def result_from_dict(data: Dict[str, object]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output."""
    per_request = RequestRecordColumns()
    columns = data.get("per_request")
    if columns:
        per_request.extend_fields(
            columns["elements"], columns["levels"], columns["swaps"]
        )
    return RunResult(
        algorithm=data["algorithm"],
        n_nodes=int(data["n_nodes"]),
        n_requests=int(data["n_requests"]),
        total_access_cost=int(data["total_access_cost"]),
        total_adjustment_cost=int(data["total_adjustment_cost"]),
        per_request=per_request,
        metadata=dict(data.get("metadata") or {}),
    )


def _header(key: str, length: int, checksum: str) -> bytes:
    return f"{_MAGIC} {_FORMAT} {key} {length} {checksum}\n".encode("ascii")


def _parse_header(line: bytes) -> Optional[Tuple[str, int, str]]:
    """``(key, body length, checksum)`` of a current-format header line."""
    fields = line.decode("ascii", "replace").split(" ")
    if len(fields) != 5 or fields[:2] != [_MAGIC, str(_FORMAT)] or not fields[3].isdigit():
        return None
    checksum = fields[4].rstrip("\n")
    return (fields[2], int(fields[3]), checksum) if len(checksum) == 64 else None


def _scan_segment(path: Path) -> Tuple[List[Tuple[str, int, int, str]], int, int]:
    """Walk one segment line by line; keep where each complete record lives.

    Returns the complete records ``(key, body offset, length, checksum)`` in
    file order, the number of damaged lines (neither a header nor the body
    of the header before it) and the number of torn records (a last record
    cut short: an unterminated line or a header with no body).
    """
    records: List[Tuple[str, int, int, str]] = []
    damaged = offset = 0
    header = None
    with open(path, "rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                break
            if header is not None and len(line) == header[1] + 1:
                records.append((header[0], offset, header[1], header[2]))
                header = None
            else:
                damaged += header is not None
                header = _parse_header(line)
                damaged += header is None
            offset += len(line)
        else:
            return records, damaged, int(header is not None)
    return records, damaged, 1


class ResultStore:
    """Content-addressed checkpoint store: verified records in append-only segments.

    Layout: ``<root>/seg-<time>-<pid>-<random>.log``, one per writing
    instance, so names sort by creation.  Keys are :func:`payload_key`
    hashes; the store itself is key-agnostic.  An instance's first read
    scans every segment once into an index of where each key's latest
    record lives (no bodies); :meth:`put` updates it, and records other
    writers append later show up after :meth:`stats`, :meth:`verify` or
    :meth:`prune`, or in a new instance.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self._index: Optional[Dict[str, _Entry]] = None
        self._segment: Optional[Path] = None
        self._writer = None

    # --------------------------------------------------------------- index

    def _segments(self) -> List[Path]:
        return sorted(self.root.glob("seg-*.log")) if self.root.is_dir() else []

    def _legacy_files(self) -> List[Path]:
        """Files of the format-1 layout: entries and their write temps."""
        if not self.root.is_dir():
            return []
        return [*self.root.glob("*/*.json"), *self.root.glob("*/.*.tmp")]

    def _rescan(self) -> Tuple[int, int]:
        """Rebuild the index from every segment; return (torn records, bytes)."""
        index: Dict[str, _Entry] = {}
        torn = size = 0
        for segment in self._segments():
            try:
                records, damaged, segment_torn = _scan_segment(segment)
                size += segment.stat().st_size
            except OSError as error:  # pragma: no cover - raced with a prune
                logger.warning("cache segment %s unreadable (%s); skipped", segment, error)
                continue
            if damaged or segment_torn:
                logger.warning(
                    "cache segment %s: %d damaged line(s), %d torn record(s); "
                    "treating them as missing",
                    segment, damaged, segment_torn,
                )
            torn += segment_torn
            for key, offset, length, checksum in records:
                index[key] = (segment, offset, length, checksum)
        self._index = index
        return torn, size

    def _entries(self) -> Dict[str, _Entry]:
        if self._index is None:
            self._rescan()
        return self._index  # type: ignore[return-value]

    def __contains__(self, key: str) -> bool:
        return key in self._entries()

    def keys(self) -> List[str]:
        """Return the keys of all complete records (verified or not), sorted."""
        return sorted(self._entries())

    def __len__(self) -> int:
        return len(self._entries())

    # ----------------------------------------------------------------- reads

    def get(self, key: str) -> Optional[RunResult]:
        """Return the verified result stored under ``key``, else ``None``.

        A record whose body fails its length or checksum is logged and
        reported as missing — the campaign re-runs the trial instead of
        crashing — and stays in place for post-mortems until :meth:`prune`;
        the next :meth:`put` of the key supersedes it.
        """
        entry = self._entries().get(key)
        if entry is None:
            return None
        segment, offset, length, checksum = entry
        try:
            with open(segment, "rb") as handle:
                handle.seek(offset)
                body = handle.read(length)
            if len(body) != length:
                raise ValueError("length mismatch (truncated record)")
            if hashlib.sha256(body).hexdigest() != checksum:
                raise ValueError("checksum mismatch (corrupted record)")
            return result_from_dict(json.loads(body))
        except (OSError, ValueError, KeyError, TypeError) as error:
            logger.warning(
                "cache record %s in %s unreadable (%s); treating as missing",
                key, segment, error,
            )
            return None

    # ----------------------------------------------------------- maintenance

    def stats(self) -> Dict[str, int]:
        """Entry count and byte footprint of the store (``repro cache stats``).

        ``orphans`` counts torn records (writes cut short by a crash) plus
        leftover files of the format-1 layout — harmless (they are never
        read) but reclaimable via :meth:`prune`.
        """
        torn, size = self._rescan()
        return {
            "entries": len(self._entries()),
            "bytes": size,
            "orphans": torn + len(self._legacy_files()),
        }

    def verify(self) -> Dict[str, List[str]]:
        """Re-verify every entry; return ``{"ok": [...], "corrupt": [...]}``.

        The eager twin of the lazy read-side healing: :meth:`get` already
        treats corrupt records as misses one key at a time, but a campaign
        about to resume on a fleet wants to know *up front* how much of its
        checkpoint is trustworthy.  Corrupt records are reported (and logged
        by the read path), never deleted — that is :meth:`prune`'s job.
        """
        self._rescan()
        ok: List[str] = []
        corrupt: List[str] = []
        for key in self.keys():
            (ok if self.get(key) is not None else corrupt).append(key)
        return {"ok": ok, "corrupt": corrupt}

    def prune(self) -> Dict[str, int]:
        """Drop corrupt and torn records and format-1 files; return counts.

        A segment holding a corrupt record (bad header, wrong body length or
        checksum) or a torn one is rewritten without it (temp file, then
        ``os.replace``), or deleted when nothing valid is left.  Segments a
        live writer holds are skipped, and healthy records are never
        dropped, so a prune mid-campaign is safe.  ``corrupt`` counts the
        corrupt records and damaged lines dropped; ``orphans`` the torn
        records and format-1 files.
        """
        removed = {"corrupt": 0, "orphans": 0}
        for segment in self._segments():
            try:
                fd = os.open(segment, os.O_RDONLY)
            except OSError:  # pragma: no cover - raced with another prune
                continue
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                corrupt, torn = self._rewrite_without_damage(segment)
            except BlockingIOError:
                continue  # a live writer holds it
            finally:
                os.close(fd)
            removed["corrupt"] += corrupt
            removed["orphans"] += torn
        for path in self._legacy_files():
            try:
                path.unlink()
                removed["orphans"] += 1
                path.parent.rmdir()
            except OSError:  # the fan-out directory still holds files
                pass
        self._index = None
        return removed

    def _rewrite_without_damage(self, segment: Path) -> Tuple[int, int]:
        """Keep only a segment's valid records; return (corrupt, torn) dropped."""
        records, corrupt, torn = _scan_segment(segment)
        with open(segment, "rb") as source:

            def body(offset: int, length: int) -> bytes:
                source.seek(offset)
                return source.read(length)

            valid = [
                (key, offset, length, checksum)
                for key, offset, length, checksum in records
                if hashlib.sha256(body(offset, length)).hexdigest() == checksum
            ]
            corrupt += len(records) - len(valid)
            if not valid and (corrupt or torn):
                segment.unlink()
            elif corrupt or torn:
                fd, tmp_name = tempfile.mkstemp(prefix=".seg-", suffix=".tmp", dir=self.root)
                try:
                    with os.fdopen(fd, "wb") as target:
                        for key, offset, length, checksum in valid:
                            target.write(_header(key, length, checksum))
                            target.write(body(offset, length) + b"\n")
                    os.replace(tmp_name, segment)
                except BaseException:
                    os.unlink(tmp_name)
                    raise
        return corrupt, torn

    # ---------------------------------------------------------------- writes

    def _open_segment(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        name = f"seg-{time.time_ns():016x}-{os.getpid()}-{os.urandom(4).hex()}.log"
        path = self.root / name
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644)
        fcntl.flock(fd, fcntl.LOCK_EX)
        self._writer = open(fd, "ab", buffering=0)
        self._segment, self._written = path, 0

    def put(self, key: str, result: RunResult) -> Path:
        """Append ``result`` under ``key`` to this instance's segment; return it.

        One ``write`` per record: once this returns, the record survives the
        death of the process.  A failed write abandons the segment (its
        torn tail is skipped by readers) and the next put opens a new one.
        """
        body = _canonical_json(result_to_dict(result)).encode("utf-8")
        checksum = hashlib.sha256(body).hexdigest()
        header = _header(key, len(body), checksum)
        if self._writer is None:
            self._open_segment()
        segment, offset = self._segment, self._written + len(header)
        record = memoryview(header + body + b"\n")
        try:
            while record:
                record = record[self._writer.write(record):]
        except BaseException:
            self._writer.close()
            self._writer = None
            raise
        self._written = offset + len(body) + 1
        if self._index is not None:
            self._index[key] = (segment, offset, len(body), checksum)
        return segment
