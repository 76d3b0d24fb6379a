"""The shared wire framing: one envelope for both daemons.

Pins the contract of the framing module: ``repro.dist.framing`` is the
single home of the length-prefixed JSON envelope, ``repro.dist.protocol``
re-exports it unchanged (so existing dist code and tests keep working), and
the incremental :class:`FrameDecoder` used by ``repro.serve`` reads exactly
the frames the blocking-socket codec of ``repro.dist`` writes, in any split.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.dist import framing
from repro.dist import protocol
from repro.dist.framing import (
    MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    decode_frame_body,
    encode_frame,
    parse_listen_address,
    recv_frame,
    send_frame,
)
from repro.exceptions import ExperimentError


class TestEnvelope:
    def test_encode_decode_roundtrip(self):
        message = {"type": "reply", "id": 7, "destinations": [1, 2, 3]}
        frame = encode_frame(message)
        length = struct.unpack(">Q", frame[:8])[0]
        assert length == len(frame) - 8
        assert decode_frame_body(frame[8:]) == message

    def test_decode_rejects_non_dict(self):
        with pytest.raises(ProtocolError):
            decode_frame_body(b"[1, 2, 3]")

    def test_decode_rejects_missing_type(self):
        with pytest.raises(ProtocolError):
            decode_frame_body(b'{"id": 1}')

    def test_unicode_survives(self):
        message = {"type": "bind", "source": "café-π"}
        assert decode_frame_body(encode_frame(message)[8:]) == message

    @pytest.mark.parametrize("body", [b"{not json", b"\xff\xfe{}", b""])
    def test_undecodable_body_is_a_protocol_error(self, body):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame_body(body)

    def test_encoding_matches_json_dumps(self):
        import json

        message = {"type": "reply", "id": None, "x": 1.5, "s": "é", "l": [1, [2]]}
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
        assert encode_frame(message) == struct.pack(">Q", len(body)) + body


class TestBlockingCodec:
    def test_socketpair_roundtrip(self):
        left, right = socket.socketpair()
        try:
            messages = [
                {"type": "hello", "protocol": 1},
                {"type": "request_batch", "id": 2, "destinations": list(range(50))},
            ]
            for message in messages:
                send_frame(left, message)
            for message in messages:
                assert recv_frame(right) == message
        finally:
            left.close()
            right.close()

    def test_eof_mid_frame_raises_connection_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">Q", 100) + b'{"type"')
            left.close()
            with pytest.raises(ConnectionError):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">Q", MAX_FRAME + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


MESSAGES = [
    {"type": "hello", "protocol": 1},
    {"type": "request_batch", "id": 2, "destinations": list(range(50))},
    {"type": "bind", "source": "café-π"},
    {"type": "drain"},
]


class TestFrameDecoder:
    def test_frames_split_at_every_byte_boundary(self):
        stream = b"".join(encode_frame(message) for message in MESSAGES)
        for cut in range(len(stream) + 1):
            decoder = FrameDecoder()
            decoded = []
            for piece in (stream[:cut], stream[cut:]):
                decoder.feed(piece)
                decoded.extend(decoder)
            assert decoded == MESSAGES, cut
            assert decoder.next_message() is None

    def test_byte_by_byte_feed(self):
        decoder = FrameDecoder()
        decoded = []
        for byte in b"".join(encode_frame(message) for message in MESSAGES):
            decoder.feed(bytes([byte]))
            decoded.extend(decoder)
        assert decoded == MESSAGES

    def test_stopping_early_keeps_the_rest(self):
        decoder = FrameDecoder()
        decoder.feed(b"".join(encode_frame(message) for message in MESSAGES))
        assert decoder.next_message() == MESSAGES[0]
        close = encode_frame({"type": "close"})
        decoder.feed(close[:5])
        assert list(decoder) == MESSAGES[1:]
        decoder.feed(close[5:])
        assert list(decoder) == [{"type": "close"}]

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(MESSAGES[0]) + struct.pack(">Q", MAX_FRAME + 1))
        assert decoder.next_message() == MESSAGES[0]
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.next_message()

    def test_malformed_body_raises_after_the_frames_before_it(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(MESSAGES[0]) + struct.pack(">Q", 9) + b"{not json")
        assert decoder.next_message() == MESSAGES[0]
        with pytest.raises(ProtocolError, match="undecodable"):
            decoder.next_message()

    def test_decoder_roundtrip_and_cross_codec_compat(self):
        """Frames written by the blocking codec are read by the decoder, and
        frames the serve daemon writes (``encode_frame``) by ``recv_frame``
        — the two daemons genuinely share one wire format."""
        left, right = socket.socketpair()
        try:
            decoder = FrameDecoder()
            # blocking codec -> decoder, pipelined in one stream
            for message in MESSAGES:
                send_frame(left, message)
            assert [decoder.recv(right) for _ in MESSAGES] == MESSAGES
            # encode_frame -> blocking codec
            right.sendall(encode_frame({"type": "welcome", "n_nodes": 63}))
            assert recv_frame(left) == {"type": "welcome", "n_nodes": 63}
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_error(self):
        for prefix in (b"", struct.pack(">Q", 100) + b'{"type"'):
            left, right = socket.socketpair()
            try:
                left.sendall(prefix)
                left.close()
                with pytest.raises(ConnectionError):
                    FrameDecoder().recv(right)
            finally:
                right.close()


class TestWorkerSurvivesMalformedFrames:
    def test_worker_keeps_accepting_after_an_undecodable_frame(self):
        from repro.dist.protocol import PROTOCOL_VERSION
        from repro.dist.worker import WorkerServer

        worker = WorkerServer().start()
        try:
            for _ in range(2):
                with socket.create_connection((worker.host, worker.port), 10) as sock:
                    sock.sendall(struct.pack(">Q", 9) + b"{not json")
                    # the worker ends the session: EOF, not a dead daemon
                    assert sock.recv(1) == b""
            with socket.create_connection((worker.host, worker.port), 10) as sock:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                assert recv_frame(sock)["type"] == "welcome"
        finally:
            worker.stop()


class TestDistReExports:
    """The dist protocol module must keep exposing the framing names it
    always had — as the *same* objects, so isinstance checks and
    monkeypatching keep working across the package boundary."""

    def test_same_objects(self):
        assert protocol.send_frame is framing.send_frame
        assert protocol.recv_frame is framing.recv_frame
        assert protocol.ProtocolError is framing.ProtocolError

    def test_protocol_error_is_experiment_error(self):
        assert issubclass(ProtocolError, ExperimentError)


class TestParseListenAddress:
    def test_parses_host_and_port(self):
        assert parse_listen_address("tcp://127.0.0.1:7077") == ("127.0.0.1", 7077)

    @pytest.mark.parametrize(
        "bad", ["127.0.0.1:7077", "tcp://:7077", "tcp://host:", "tcp://host:x", 7]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExperimentError, match="tcp://HOST:PORT"):
            parse_listen_address(bad)
