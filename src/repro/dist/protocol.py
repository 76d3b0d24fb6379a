"""Wire protocol of the distributed executor: frames, codecs, addresses.

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

from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.algorithms.registry import AlgorithmSpec
from repro.dist.framing import (  # noqa: F401 - shared-framing re-exports
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.exceptions import ExperimentError
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

#: Seconds a lease stays valid without a heartbeat before it expires.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Seconds between worker heartbeats while a payload is computing.  Kept a
#: small fraction of the lease timeout so one dropped heartbeat never
#: expires a healthy lease.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

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


# ------------------------------------------------------- executor addresses


@dataclass(frozen=True)
class ExecutorSpec:
    """Parsed form of an executor address string.

    The string format — carried verbatim in ``RunConfig.executor`` so plans
    stay JSON round-trippable — is::

        tcp://HOST:PORT[,HOST:PORT...][?lease=SECONDS&heartbeat=SECONDS]

    ``workers`` lists the daemon addresses the coordinator will connect to;
    ``lease_timeout`` is how long a lease survives without a heartbeat;
    ``heartbeat_interval`` is the cadence the coordinator asks workers to
    heartbeat at (shipped inside each ``lease`` message, so the fleet needs
    no configuration of its own).
    """

    workers: Tuple[Tuple[str, int], ...]
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL

    def __post_init__(self) -> None:
        if not self.workers:
            raise ExperimentError("executor address lists no workers")
        if not self.lease_timeout > 0:
            raise ExperimentError(
                f"lease timeout must be positive, got {self.lease_timeout!r}"
            )
        if not self.heartbeat_interval > 0:
            raise ExperimentError(
                f"heartbeat interval must be positive, got "
                f"{self.heartbeat_interval!r}"
            )

    @classmethod
    def parse(cls, address: str) -> "ExecutorSpec":
        """Parse an executor address string, validating scheme and ports."""
        if not isinstance(address, str) or not address:
            raise ExperimentError(f"not an executor address: {address!r}")
        split = urlsplit(address)
        if split.scheme != "tcp":
            raise ExperimentError(
                f"unsupported executor scheme {split.scheme!r} in {address!r}; "
                "only 'tcp://host:port[,host:port...]' is supported"
            )
        workers = []
        for entry in (split.netloc or "").split(","):
            host, _, port = entry.rpartition(":")
            if not host or not port.isdigit():
                raise ExperimentError(
                    f"bad worker address {entry!r} in {address!r}; expected "
                    "HOST:PORT"
                )
            workers.append((host, int(port)))
        options = parse_qs(split.query)
        unknown = sorted(set(options) - {"lease", "heartbeat"})
        if unknown:
            raise ExperimentError(
                f"unknown executor options {unknown} in {address!r}; "
                "supported: lease, heartbeat"
            )

        def last_float(name: str, default: float) -> float:
            values = options.get(name)
            if not values:
                return default
            try:
                return float(values[-1])
            except ValueError:
                raise ExperimentError(
                    f"executor option {name}={values[-1]!r} is not a number"
                ) from None

        return cls(
            workers=tuple(workers),
            lease_timeout=last_float("lease", DEFAULT_LEASE_TIMEOUT),
            heartbeat_interval=last_float("heartbeat", DEFAULT_HEARTBEAT_INTERVAL),
        )


def check_executor(address: Optional[str]) -> Optional[str]:
    """Eagerly validate an executor address (``None`` passes through).

    Plan documents are validated at construction, possibly on a machine that
    cannot reach the fleet — so only the address format is checked, never
    connectivity (exactly like ``check_n_jobs`` never checks the CPU count).
    """
    if address is not None:
        ExecutorSpec.parse(address)
    return address
