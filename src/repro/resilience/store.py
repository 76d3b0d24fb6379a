"""Content-addressed, crash-safe result store for trial checkpoints.

Every trial result in this repo is a pure function of its payload content:
seeds are derived from the trial index alone, specs rebuild generators in
their pristine state, and worker counts/chunk sizes are bit-identical
throughput knobs.  :func:`payload_key` hashes exactly the payload fields that determine
the result — and deliberately *not* the throughput knobs — so a cache entry
written under ``--jobs 4 --chunk-size 512`` is a valid hit for a serial
re-run, and an incrementally-extended campaign (more trials, more
sweep points) re-uses every unchanged payload's entry even though the plan
hash changed.

:class:`ResultStore` persists one file per entry under a root directory
(default ``.repro-cache/``):

* **atomic** — entries are written to a temp file in the same directory and
  ``os.replace``-d into place, so a crash mid-write can never leave a
  half-entry under the final name;
* **self-verifying** — each file carries a header with the body's byte
  length and SHA-256; :meth:`ResultStore.get` treats any mismatch (truncated
  write, bit rot, stray file) as a *miss*, logs a warning, and lets the
  executor simply re-run the trial — corruption is never fatal;
* **append-only in spirit** — entries are immutable once written; re-putting
  the same key atomically replaces the file with identical bytes.

:func:`plan_hash` complements the per-payload keys with a whole-plan content
hash (throughput knobs normalised away) for provenance and campaign-level
identity.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.algorithms.base import RunResult
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

#: Default checkpoint-store location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Magic + format version of entry files; bumping the version invalidates
#: every existing entry (readers treat unknown headers as corrupt → miss).
_MAGIC = "repro-result"
_FORMAT = 1


def _canonical_json(data: object) -> str:
    """Serialise to the one canonical byte form hashes are computed over."""
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), default=repr
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _source_fingerprint(source: object) -> Dict[str, object]:
    """The result-determining content of a payload's workload half.

    ``chunk_size`` and ``shared`` are transport/batching knobs (streaming is
    pinned chunk-invariant), so they are deliberately absent.
    """
    from repro.sim.runner import (  # lazy: runner imports resilience
        AdversarySource,
        SequenceSource,
        SpecSource,
        TrafficSource,
    )

    if isinstance(source, SpecSource):
        return {
            "type": "spec",
            "spec": source.spec.to_dict(),
            "n_requests": source.n_requests,
        }
    if isinstance(source, SequenceSource):
        return {
            "type": "sequence",
            "sha256": _sha256(_canonical_json(list(source.sequence))),
            "n_requests": len(source.sequence),
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
    seeds, trial index, record mode and metadata.  Excluded: ``chunk_size``
    and the test-only fault field — all pinned bit-identical
    (or result-free), so results cached under one configuration are hits
    under every other.
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

    Two plans that differ only in ``n_jobs``/``chunk_size``/``cache_dir``/
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
                    "chunk_size",
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


def _records_to_columns(records: object) -> Dict[str, List[int]]:
    """Decompose per-request records into the three integer columns."""
    if isinstance(records, RequestRecordColumns):
        return {
            "elements": list(records._elements),
            "levels": list(records._levels),
            "swaps": list(records._swaps),
        }
    elements: List[int] = []
    levels: List[int] = []
    swaps: List[int] = []
    for record in records:
        elements.append(record.element)
        levels.append(record.level_at_access)
        swaps.append(record.adjustment_cost)
    return {"elements": elements, "levels": levels, "swaps": swaps}


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
        per_request=per_request if len(per_request) else [],
        metadata=dict(data.get("metadata") or {}),
    )


class ResultStore:
    """Content-addressed checkpoint store: one verified file per trial result.

    Layout: ``<root>/<key[:2]>/<key>.json`` — a two-hex-character fan-out so
    paper-scale campaigns (10^5+ entries) never put every file in one
    directory.  Keys are :func:`payload_key` hashes; the store itself is
    key-agnostic.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------- locations

    def path_for(self, key: str) -> Path:
        """Entry path of ``key`` (existing or not)."""
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> List[str]:
        """Return the keys of all stored entries (verified or not), sorted."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    # ----------------------------------------------------------------- reads

    def get(self, key: str) -> Optional[RunResult]:
        """Return the verified result stored under ``key``, else ``None``.

        Corrupted, truncated or otherwise unreadable entries are logged and
        reported as missing — the campaign re-runs the trial instead of
        crashing — and the bad file is left in place for post-mortems (the
        next :meth:`put` atomically replaces it).
        """
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as error:
            logger.warning("cache entry %s unreadable (%s); treating as missing", path, error)
            return None
        try:
            header, _, body = raw.partition("\n")
            magic, version, length, checksum = header.split(" ")
            if magic != _MAGIC or int(version) != _FORMAT:
                raise ValueError(f"bad header {header!r}")
            if len(body.encode("utf-8")) != int(length):
                raise ValueError("length mismatch (truncated entry)")
            if _sha256(body) != checksum:
                raise ValueError("checksum mismatch (corrupted entry)")
            return result_from_dict(json.loads(body))
        except (ValueError, KeyError, TypeError) as error:
            logger.warning(
                "cache entry %s corrupt (%s); treating as missing", path, error
            )
            return None

    # ----------------------------------------------------------- maintenance

    def stats(self) -> Dict[str, int]:
        """Entry count and byte footprint of the store (``repro cache stats``).

        ``orphans`` counts leftover temp files from interrupted writes —
        harmless (they are never read) but reclaimable via :meth:`prune`.
        """
        entries = 0
        size = 0
        orphans = 0
        if self.root.is_dir():
            for path in self.root.glob("*/*.json"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:  # pragma: no cover - raced with a writer
                    pass
            orphans = sum(1 for _ in self.root.glob("*/.*.tmp"))
        return {"entries": entries, "bytes": size, "orphans": orphans}

    def verify(self) -> Dict[str, List[str]]:
        """Re-verify every entry; return ``{"ok": [...], "corrupt": [...]}``.

        The eager twin of the lazy read-side healing: :meth:`get` already
        treats corrupt entries as misses one key at a time, but a campaign
        about to resume on a fleet wants to know *up front* how much of its
        checkpoint is trustworthy.  Corrupt entries are reported (and logged
        by the read path), never deleted — that is :meth:`prune`'s job.
        """
        ok: List[str] = []
        corrupt: List[str] = []
        for key in self.keys():
            (ok if self.get(key) is not None else corrupt).append(key)
        return {"ok": ok, "corrupt": corrupt}

    def prune(self) -> Dict[str, int]:
        """Drop corrupt entries and orphaned temp files; return removal counts.

        Only files that can never satisfy a read are touched: entries whose
        header, length or checksum fails verification, and ``mkstemp``
        leftovers from writes that died before their atomic rename.  Healthy
        entries are never candidates, so a prune mid-campaign is safe.
        """
        removed = {"corrupt": 0, "orphans": 0}
        for key in self.keys():
            if self.get(key) is None:
                try:
                    self.path_for(key).unlink()
                    removed["corrupt"] += 1
                except OSError:  # pragma: no cover - raced with a writer
                    pass
        if self.root.is_dir():
            for path in self.root.glob("*/.*.tmp"):
                try:
                    path.unlink()
                    removed["orphans"] += 1
                except OSError:  # pragma: no cover - raced with a writer
                    pass
        return removed

    # ---------------------------------------------------------------- writes

    def put(self, key: str, result: RunResult) -> Path:
        """Store ``result`` under ``key`` atomically (write-then-rename)."""
        body = _canonical_json(result_to_dict(result))
        payload = (
            f"{_MAGIC} {_FORMAT} {len(body.encode('utf-8'))} {_sha256(body)}\n{body}"
        )
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path
