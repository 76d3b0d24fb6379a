"""Resilient execution: retries, fault isolation, checkpointed campaigns.

The determinism invariants the plan layer guarantees (per-trial seeds are
pure functions of the trial index; plans are immutable, hashable and JSON
round-trippable) mean every trial result is a pure function of its payload
content.  This package exploits that property in three coupled layers:

* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, the capped
  exponential-backoff schedule shared by the fan-out's per-payload retries
  and its pool-rebuild rounds;
* :mod:`repro.resilience.store` — :class:`ResultStore`, a content-addressed
  crash-safe checkpoint store (self-verifying records appended to one
  segment per run, length + checksum verification on read) keyed by :func:`payload_key` — the hash of
  everything that determines a trial result bit for bit — plus
  :func:`plan_hash` for whole-plan provenance;
* :mod:`repro.resilience.faults` — :class:`FaultSpec`, the seeded,
  registry-validated fault-injection description (worker crash, hang,
  transient exception, plus daemon-level kill/hang/partition modes for the
  distributed fleet) that lets the test suite and the CI smoke pin
  "recovery output == fault-free output, byte identical";
* :mod:`repro.resilience.context` — :class:`ExecutionContext` /
  :class:`ResilienceStats`, the per-run carrier of the store, the resume
  flag and the execution counters the resume tests assert against.

Because re-running a payload always reproduces the same bits, retrying,
resuming and degrading to serial execution are all *observationally free*:
the resilience layer can recover from any failure mode without changing a
single result byte.
"""

from __future__ import annotations

from repro import _lazy_exports

__all__ = [
    "ExecutionContext",
    "FAULT_MODES",
    "FaultSpec",
    "ResilienceStats",
    "ResultStore",
    "RetryPolicy",
    "WORKER_FAULT_MODES",
    "activate_context",
    "current_context",
    "fault_spec_from_env",
    "maybe_inject",
    "payload_key",
    "plan_hash",
]

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.resilience.context": (
        "ExecutionContext",
        "ResilienceStats",
        "activate_context",
        "current_context",
    ),
    "repro.resilience.faults": (
        "FAULT_MODES",
        "WORKER_FAULT_MODES",
        "FaultSpec",
        "fault_spec_from_env",
        "maybe_inject",
    ),
    "repro.resilience.retry": ("RetryPolicy",),
    "repro.resilience.store": ("ResultStore", "payload_key", "plan_hash"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
