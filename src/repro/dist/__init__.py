"""Distributed multi-host execution: lease-based dispatch over TCP.

The resilience layer (PR 6) made trial execution location-independent:
payloads are pure content — specs only, seeds derived from the trial index —
and results are content-keyed, self-verifying :class:`repro.resilience.
ResultStore` entries.  This package exploits that property to spread a
campaign over long-lived worker daemons on other hosts:

* :mod:`repro.dist.protocol` — the wire format: length-prefixed JSON frames,
  the payload/result codecs (every field is already a spec with a
  ``to_dict``/``from_dict`` pair); :class:`ExecutorSpec`, the parsed form
  of an executor address string (``tcp://host:port,host:port?lease=30``),
  lives in :mod:`repro.fanout` so that plan documents check addresses
  without loading this package;
* :mod:`repro.dist.worker` — the worker daemon (``repro worker --listen
  tcp://0.0.0.0:PORT``): accepts one coordinator at a time, executes leased
  payloads in a background thread while the connection thread keeps
  heartbeating, and reports results (or injected worker-level faults);
* :mod:`repro.dist.coordinator` — the lease-based scheduler behind
  ``repro.run(plan, executor=...)``, and the first rung of the one fan-out
  ladder in :func:`repro.sim.parallel.map_ordered` (remote fleet → local
  process pool → in-process serial): each payload is leased to one worker
  with a deadline, heartbeats renew the deadline, an expired lease (worker
  crash, hang or partition) requeues the payload for another worker, and
  duplicate completions from lease races are dropped.  Results, retry
  budgets and degradation belong to the ladder's run, so a payload the
  fleet leaves behind finishes locally, byte-identically.
"""

from __future__ import annotations

from repro import _lazy_exports

__all__ = [
    "DistributedExecutor",
    "ExecutorSpec",
    "WorkerServer",
    "payload_from_dict",
    "payload_to_dict",
    "recv_frame",
    "run_worker",
    "send_frame",
]

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.dist.coordinator": ("DistributedExecutor",),
    "repro.dist.framing": ("recv_frame", "send_frame"),
    "repro.dist.protocol": ("payload_from_dict", "payload_to_dict"),
    "repro.fanout": ("ExecutorSpec",),
    "repro.dist.worker": ("WorkerServer", "run_worker"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
