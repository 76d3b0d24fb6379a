"""Wire protocol of the distributed executor: frames, codecs, addresses.

The contract the coordinator and worker daemons both rely on: frames
round-trip byte-exactly over a socket, every payload shape the runners build
(spec / sequence / traffic / adversary sources, with or without a fault)
survives the JSON codec with its content key intact, and executor address
strings parse with the repo's usual eager-validation error shapes.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.algorithms.registry import AlgorithmSpec
from repro.dist.protocol import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_LEASE_TIMEOUT,
    ExecutorSpec,
    ProtocolError,
    check_executor,
    payload_from_dict,
    payload_to_dict,
    recv_frame,
    send_frame,
)
from repro.exceptions import ExperimentError
from repro.network.traffic import TrafficSpec
from repro.resilience import FaultSpec
from repro.resilience.store import payload_key
from repro.sim.runner import (
    AdversarySource,
    SpecSource,
    TrafficSource,
    TrialPayload,
)
from repro.workloads.adversarial import AdversarySpec
from repro.workloads.spec import WorkloadSpec


class TestFraming:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = {"type": "lease", "lease_id": 3, "payload": {"x": [1, 2]}}
            send_frame(left, message)
            send_frame(left, {"type": "shutdown"})
            assert recv_frame(right) == message
            assert recv_frame(right) == {"type": "shutdown"}
        finally:
            left.close()
            right.close()

    def test_eof_mid_frame_raises_connection_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x00\x00\x00\x00\x10partial")
            left.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_prefix_is_refused(self):
        left, right = socket.socketpair()
        try:
            left.sendall((1 << 40).to_bytes(8, "big"))
            with pytest.raises(ProtocolError, match="cap"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_untyped_message_is_refused(self):
        left, right = socket.socketpair()
        try:
            body = json.dumps([1, 2, 3]).encode()
            left.sendall(len(body).to_bytes(8, "big") + body)
            with pytest.raises(ProtocolError, match="not a protocol message"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


def _payload(source, **kwargs) -> TrialPayload:
    fields = dict(
        algorithm=AlgorithmSpec.coerce("rotor-push"),
        source=source,
        n_nodes=15,
        placement_seed=11,
        algorithm_seed=12,
        keep_records=False,
        trial=0,
        metadata={"point": 3},
    )
    fields.update(kwargs)
    return TrialPayload(**fields)


class TestPayloadCodec:
    @pytest.fixture()
    def sources(self, tmp_path):
        spec = WorkloadSpec.create("uniform", n_elements=15, seed=7)
        return [
            SpecSource(spec, n_requests=100, shared=True),
            TrafficSource(
                traffic=TrafficSpec.create(
                    n_nodes=15, source_workloads={0: spec, 2: spec}, seed=5
                ),
                requests_per_source=50,
            ),
            AdversarySource(
                adversary=AdversarySpec.create(
                    "mtf-lower-bound", n_elements=15, n_nodes=15
                ),
                n_requests=60,
            ),
        ]

    def test_every_source_kind_roundtrips(self, sources):
        for source in sources:
            payload = _payload(source)
            document = json.loads(json.dumps(payload_to_dict(payload)))
            rebuilt = payload_from_dict(document)
            assert rebuilt == payload
            # the content key — what the worker stamps into result frames —
            # survives the wire format bit-exactly
            assert payload_key(rebuilt) == payload_key(payload)

    @pytest.mark.parametrize("backend", [None, "python", "array"])
    def test_older_frames_with_a_backend_key_still_load(self, sources, backend):
        payload = _payload(sources[0])
        document = payload_to_dict(payload)
        assert "backend" not in document
        document["backend"] = backend
        rebuilt = payload_from_dict(json.loads(json.dumps(document)))
        assert rebuilt == payload
        assert payload_key(rebuilt) == payload_key(payload)

    def test_fault_spec_rides_along(self, sources, tmp_path):
        fault = FaultSpec(
            mode="worker_crash", trials=(0,), arm_dir=str(tmp_path), seed=3
        )
        payload = _payload(sources[0], fault=fault)
        rebuilt = payload_from_dict(payload_to_dict(payload))
        assert rebuilt.fault == fault

    def test_unknown_source_kind_is_refused(self, sources):
        document = payload_to_dict(_payload(sources[0]))
        document["source"]["type"] = "carrier-pigeon"
        with pytest.raises(ProtocolError, match="carrier-pigeon"):
            payload_from_dict(document)
        with pytest.raises(ProtocolError, match="payload document"):
            payload_from_dict({"algorithm": {}})
        with pytest.raises(ProtocolError, match="not a payload document"):
            payload_from_dict("nope")

    def test_retired_sequence_source_is_refused(self):
        # materialised sequences no longer cross the wire: corpus traces ship
        # as recipe specs and recorded traces as fixed-sequence specs
        document = {
            "algorithm": {"name": "rotor-push", "params": {}},
            "source": {"type": "sequence", "sequence": [1, 2, 3, 4]},
            "n_nodes": 15,
            "placement_seed": 11,
            "algorithm_seed": 12,
            "keep_records": False,
            "trial": 0,
        }
        with pytest.raises(ProtocolError, match="'sequence'"):
            payload_from_dict(document)


class TestExecutorSpec:
    def test_single_and_multi_worker_addresses(self):
        spec = ExecutorSpec.parse("tcp://10.0.0.1:7777")
        assert spec.workers == (("10.0.0.1", 7777),)
        assert spec.lease_timeout == DEFAULT_LEASE_TIMEOUT
        assert spec.heartbeat_interval == DEFAULT_HEARTBEAT_INTERVAL
        fleet = ExecutorSpec.parse("tcp://a:1,b:2,c:3")
        assert fleet.workers == (("a", 1), ("b", 2), ("c", 3))

    def test_lease_and_heartbeat_options(self):
        spec = ExecutorSpec.parse("tcp://h:1?lease=2.5&heartbeat=0.5")
        assert spec.lease_timeout == 2.5
        assert spec.heartbeat_interval == 0.5

    def test_bad_addresses_fail_eagerly(self):
        with pytest.raises(ExperimentError, match="executor scheme"):
            ExecutorSpec.parse("http://h:1")
        with pytest.raises(ExperimentError, match="HOST:PORT"):
            ExecutorSpec.parse("tcp://h")
        with pytest.raises(ExperimentError, match="HOST:PORT"):
            ExecutorSpec.parse("tcp://h:1,")
        with pytest.raises(ExperimentError, match="unknown executor options"):
            ExecutorSpec.parse("tcp://h:1?jitter=1")
        with pytest.raises(ExperimentError, match="not a number"):
            ExecutorSpec.parse("tcp://h:1?lease=soon")
        with pytest.raises(ExperimentError, match="lease timeout"):
            ExecutorSpec.parse("tcp://h:1?lease=0")
        with pytest.raises(ExperimentError, match="heartbeat interval"):
            ExecutorSpec.parse("tcp://h:1?heartbeat=-1")
        with pytest.raises(ExperimentError, match="not an executor address"):
            ExecutorSpec.parse("")

    def test_check_executor_passes_none_through(self):
        assert check_executor(None) is None
        assert check_executor("tcp://h:1") == "tcp://h:1"
