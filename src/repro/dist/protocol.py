"""Wire protocol of the distributed executor: frames, codecs, addresses.

Executor addresses are parsed by :class:`~repro.fanout.ExecutorSpec`, which
lives with the other fan-out knobs in an import-light module and is
re-exported here.

The protocol is deliberately minimal — length-prefixed JSON frames over a
plain TCP stream — because everything that crosses the wire is already a
spec with a canonical dictionary form: :class:`~repro.algorithms.registry.
AlgorithmSpec`, :class:`~repro.workloads.spec.WorkloadSpec`,
:class:`~repro.network.traffic.TrafficSpec`, :class:`~repro.workloads.
adversarial.AdversarySpec`, :class:`~repro.resilience.FaultSpec` and the
:class:`~repro.algorithms.base.RunResult` codec of the checkpoint store.
A payload therefore serialises in bytes, not megabytes, and a worker on any
host rebuilds exactly the objects the parent would have built.

Frame format: an 8-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Every frame is one message object with a ``"type"``
key; the conversation is strictly coordinator-driven:

================  =========================  =================================
message           direction                  meaning
================  =========================  =================================
``hello``         coordinator → worker       protocol handshake (version)
``welcome``       worker → coordinator       handshake reply (version, pid)
``lease``         coordinator → worker       one payload, leased until deadline
``heartbeat``     worker → coordinator       still computing; renew the lease
``result``        worker → coordinator       verified completion (key + result)
``error``         worker → coordinator       execution raised (retryable)
``shutdown``      coordinator → worker       end the session politely
================  =========================  =================================

Lease semantics live entirely on the coordinator: the worker just promises
to keep heartbeating while it computes.  Any gap longer than the lease
timeout — worker crash, hang, network partition — expires the lease and the
payload is requeued for another worker; a late ``result`` for an expired
lease is resolved idempotently by content key (first verified completion
wins, duplicates are dropped).
"""

from __future__ import annotations

from typing import Dict

from repro.algorithms.registry import AlgorithmSpec
from repro.dist.framing import (  # noqa: F401 - shared-framing re-exports
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.fanout import (  # noqa: F401 - the executor address lives with the fan-out knobs
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_LEASE_TIMEOUT,
    ExecutorSpec,
    check_executor,
)
from repro.network.traffic import TrafficSpec
from repro.resilience.faults import FaultSpec
from repro.sim.runner import (
    AdversarySource,
    SpecSource,
    TrafficSource,
    TrialPayload,
)
from repro.workloads.adversarial import AdversarySpec
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "ExecutorSpec",
    "ProtocolError",
    "check_executor",
    "payload_from_dict",
    "payload_to_dict",
    "recv_frame",
    "send_frame",
]


# Framing (length prefix, codec, cap, ProtocolError, PROTOCOL_VERSION) lives
# in repro.dist.framing, shared with the live-serve daemon; the names above
# are re-exported here so existing imports keep working.


# ----------------------------------------------------------- payload codec

_SOURCE_CODECS = {
    "spec": (
        SpecSource,
        lambda s: {
            "spec": s.spec.to_dict(),
            "n_requests": s.n_requests,
            "shared": s.shared,
        },
        lambda d: SpecSource(
            spec=WorkloadSpec.from_dict(d["spec"]),
            n_requests=int(d["n_requests"]),
            shared=bool(d["shared"]),
        ),
    ),
    "traffic": (
        TrafficSource,
        lambda s: {
            "traffic": s.traffic.to_dict(),
            "requests_per_source": s.requests_per_source,
        },
        lambda d: TrafficSource(
            traffic=TrafficSpec.from_dict(d["traffic"]),
            requests_per_source=int(d["requests_per_source"]),
        ),
    ),
    "adversary": (
        AdversarySource,
        lambda s: {"adversary": s.adversary.to_dict(), "n_requests": s.n_requests},
        lambda d: AdversarySource(
            adversary=AdversarySpec.from_dict(d["adversary"]),
            n_requests=int(d["n_requests"]),
        ),
    ),
}


def payload_to_dict(payload: TrialPayload) -> Dict[str, object]:
    """JSON-friendly form of a :class:`~repro.sim.runner.TrialPayload`.

    Specs all the way down: every half of the payload already has a
    canonical dictionary form, so the document round-trips bit-exactly
    through :func:`payload_from_dict` (pinned by the protocol tests).
    """
    for kind, (cls, encode, _decode) in _SOURCE_CODECS.items():
        if isinstance(payload.source, cls):
            source_doc: Dict[str, object] = {"type": kind, **encode(payload.source)}
            break
    else:
        raise ProtocolError(f"unknown workload source type: {payload.source!r}")
    return {
        "algorithm": payload.algorithm.to_dict(),
        "source": source_doc,
        "n_nodes": payload.n_nodes,
        "placement_seed": payload.placement_seed,
        "algorithm_seed": payload.algorithm_seed,
        "keep_records": payload.keep_records,
        "trial": payload.trial,
        "metadata": payload.metadata,
        "fault": None if payload.fault is None else payload.fault.to_dict(),
    }


def payload_from_dict(data: Dict[str, object]) -> TrialPayload:
    """Rebuild a payload from :func:`payload_to_dict` output.

    Keys this version does not read — such as the retired ``backend`` of
    older peers' frames — are ignored.
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"not a payload document: {data!r}")
    source_doc = data.get("source")
    if not isinstance(source_doc, dict) or "type" not in source_doc:
        raise ProtocolError(f"payload document has no workload source: {data!r}")
    codec = _SOURCE_CODECS.get(source_doc["type"])
    if codec is None:
        raise ProtocolError(f"unknown workload source kind {source_doc['type']!r}")
    fault = data.get("fault")
    return TrialPayload(
        algorithm=AlgorithmSpec.from_dict(data["algorithm"]),
        source=codec[2](source_doc),
        n_nodes=int(data["n_nodes"]),
        placement_seed=None
        if data.get("placement_seed") is None
        else int(data["placement_seed"]),
        algorithm_seed=None
        if data.get("algorithm_seed") is None
        else int(data["algorithm_seed"]),
        keep_records=bool(data["keep_records"]),
        trial=int(data["trial"]),
        metadata=dict(data.get("metadata") or {}),
        fault=None if fault is None else FaultSpec.from_dict(fault),
    )


