"""Live serving: a long-lived traffic endpoint with replayable ingest.

``repro serve --listen tcp://0.0.0.0:PORT`` runs an asyncio daemon that
accepts request streams from many concurrent clients over the same
length-prefixed JSON framing as the distributed executor
(:mod:`repro.dist.framing`).  Each client session binds a named *source* to
its own per-source tree (drawn from an
:class:`~repro.algorithms.registry.AlgorithmSpec` and the source's seeds:
a resident seeded owner served in C where the kernel serves the algorithm,
a built tree served through ``serve_batch`` otherwise); a deterministic
engine loop
pulls from bounded per-session queues with explicit backpressure and
accumulates live route costs.

Every accepted request is appended to a crash-safe, segment-rotated
**ingest log** (:mod:`repro.serve.ingest`).  ``repro replay <log>``
reconstructs a fixed-sequence plan from the log and reruns it through
:func:`repro.run` — bit-identically to the live-accumulated per-source cost
table, because the engine derives its per-source seeds exactly as a replay
:class:`~repro.plans.model.TrialPlan` stage would (see
:mod:`repro.serve.engine`).
"""

from repro import _lazy_exports

__all__ = [
    "IngestLogReader",
    "IngestWriter",
    "ServeClient",
    "ServeEngine",
    "ServeError",
    "ServeServer",
    "build_replay_plan",
    "read_ingest_log",
    "run_serve",
]

#: Each public name's defining module (see :func:`repro._lazy_exports`).
_EXPORTS = {
    "repro.serve.client": ("ServeClient",),
    "repro.serve.engine": ("ServeEngine", "ServeError"),
    "repro.serve.ingest": ("IngestLogReader", "IngestWriter", "read_ingest_log"),
    "repro.serve.replay": ("build_replay_plan",),
    "repro.serve.server": ("ServeServer", "run_serve"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
