"""What every benchmark workload provides, and the helpers they share."""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.calib import Calibrator

__all__ = ["Measurement", "Workload", "median_rate", "table_digest"]


@dataclass
class Measurement:
    """What one pass of a workload's timed phase produced.

    ``req_per_s`` is in requests per reference-second; ``wall`` holds the
    raw wall-clock values behind every calibrated number, and ``extra``
    holds the workload's own calibrated figures (the live endpoint's batch
    latency and replay time).
    """

    req_per_s: float
    requests: int
    units: int
    wall: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One set of inputs the benchmark drives through the program.

    Subclasses build everything from ``seed`` in :meth:`setup` (plan load and
    validation, a warm-up pass, servers and clients), then :meth:`measure`
    runs the timed phase.  With ``fixed=True`` the timed phase is one fixed
    list of work instead of a time budget, so a traced and an untraced pass
    do identical work.  :meth:`check` returns the output mismatches found so
    far (empty when every output was correct).
    """

    name = ""

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        if size not in ("full", "tiny"):
            raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        #: Operations attempted and failed in timed phases (payloads or
        #: batches, whichever the workload hands the program).
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.pool_rebuilds = 0
        self.mismatches: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, calibrator: Calibrator, seconds: float, fixed: bool = False) -> Measurement:
        raise NotImplementedError

    def finish(self) -> None:
        """Run the output checks that need the whole run (optional)."""

    def close(self) -> None:
        """Stop every process and thread the workload started."""

    def mismatch(self, message: str) -> None:
        self.mismatches.append(f"{self.name}: {message}")

    def count_run_stats(self, payloads: int) -> None:
        """Add one ``repro.run`` call's payloads and failures to the totals.

        Failures are payload retries, pool rebuilds and degradations to
        serial, as :func:`repro.plans.last_run_stats` reports them.
        """
        from repro.plans import last_run_stats

        stats = last_run_stats()
        self.attempted += payloads
        self.retries += stats.retries
        self.pool_rebuilds += stats.pool_rebuilds
        self.failed += stats.retries + stats.pool_rebuilds + int(stats.degraded)


def median_rate(requests: Dict[str, int], ref_seconds: Dict[str, List[float]]) -> float:
    """Requests per reference-second over unit types, from per-type medians.

    Unit types differ in cost by up to 8x, so each type contributes the
    median of its repeats once and an outlier repeat cannot tip the sum.
    """
    total_requests = sum(requests[key] for key in ref_seconds)
    total_seconds = sum(statistics.median(values) for values in ref_seconds.values())
    return total_requests / total_seconds


def table_digest(rows: object) -> str:
    """Short content hash of a result table's rows (floats by repr)."""
    text = json.dumps(rows, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    """The cost-table digest recorded for ``seed``, if one was recorded."""
    path = Path(__file__).resolve().parent.parent / "digests.json"
    recorded = json.loads(path.read_text())
    return recorded.get(workload, {}).get(str(seed))
