"""Shared wire framing for every repro daemon (``dist`` and ``serve``).

Both long-lived daemons — the distributed-executor worker
(:mod:`repro.dist.worker`) and the live traffic endpoint
(:mod:`repro.serve.server`) — speak the same byte-level protocol: an 8-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON, one
message object per frame, every message a dict with a ``"type"`` key.  This
module is the single home of that framing so the two daemons cannot drift:
one encoder (:func:`encode_frame`), one body decoder
(:func:`decode_frame_body`), one length cap and one error type.

:func:`recv_frame` reads exactly one frame off a blocking socket (``dist``
talks one message at a time).  :class:`FrameDecoder` decodes a byte stream
fed in any split, so a peer may pipeline frames: the serve daemon feeds it
from ``asyncio.BufferedProtocol.buffer_updated``, the serve client from
``recv``.

The message-level conversations differ (lease-driven for ``dist``,
session-driven for ``serve``) and stay in their own packages; only the
bytes-on-the-wire layer lives here.
"""

from __future__ import annotations

import json
import socket
import struct
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.exceptions import ExperimentError

__all__ = [
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "READ_BYTES",
    "FrameDecoder",
    "ProtocolError",
    "decode_frame_body",
    "encode_frame",
    "encode_json",
    "parse_listen_address",
    "recv_frame",
    "send_frame",
]

_LENGTH = struct.Struct(">Q")
_HEADER = _LENGTH.size


def _compact_encoder() -> Callable[[object], str]:
    """``json.dumps(value, separators=(",", ":"))``, the same text.

    ``JSONEncoder.encode`` builds a C encoder on every call; this one is
    built once.  It keeps no circular-reference marks, the one state the C
    encoder would carry from call to call (and keep after an error), so a
    value that contains itself raises ``RecursionError`` instead of
    ``ValueError``.  Without the C accelerator it is ``JSONEncoder.encode``.
    """
    encoder = json.JSONEncoder(separators=(",", ":"))
    if c_make_encoder is None:
        return encoder.encode
    iterencode = c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None, ":", ",",
        False, False, True,
    )
    return lambda value: "".join(iterencode(value, 0))


#: The compact JSON text of a frame body or an ingest record.
encode_json = _compact_encoder()

#: The scanner ``json.loads`` runs, built once.
_scan_json = json.JSONDecoder().scan_once


def _decode_json(text: str) -> object:
    """``json.loads(text)``: the same value, or the same error.

    A text that is one value and nothing more (what :data:`encode_json`
    writes) is read by the scanner alone, without the whitespace pattern
    ``json.loads`` matches before and after the value.  Any other text
    goes to ``json.loads``.
    """
    try:
        value, end = _scan_json(text, 0)
    except StopIteration:  # no value at 0: whitespace first, or nothing
        return json.loads(text)
    if end == len(text):
        return value
    return json.loads(text)


#: Version stamped into the handshake of both daemons; mismatched peers
#: refuse the session.
PROTOCOL_VERSION = 1

#: Upper bound on a single frame (1 GiB) — a corrupted length prefix must
#: fail loudly instead of attempting a multi-exabyte allocation.
MAX_FRAME = 1 << 30

#: Bytes asked of the socket per read (64 KiB).  Asyncio readers read into
#: one reused buffer of this size (``asyncio.BufferedProtocol``): the
#: selector transport of a plain ``Protocol`` allocates a fresh 256 KiB
#: buffer for every read, whose cost depends on the state of the heap.
READ_BYTES = 1 << 16


class ProtocolError(ExperimentError):
    """Raised when a peer violates a repro daemon wire protocol."""


# --------------------------------------------------------- shared envelope


def encode_frame(message: Dict[str, object]) -> bytes:
    """Serialise one message into its on-the-wire frame (length + JSON)."""
    body = encode_json(message).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def decode_frame_body(body: bytes) -> Dict[str, object]:
    """Decode a frame body into a message, enforcing the envelope shape
    (a body that is not UTF-8 JSON is a :class:`ProtocolError` too)."""
    try:
        message = _decode_json(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame body: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"not a protocol message: {message!r}")
    return message


def _check_length(length: int) -> int:
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds the {MAX_FRAME}-byte cap")
    return length


# ------------------------------------------------- blocking-socket codec


def send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    """Send one length-prefixed JSON frame."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, object]:
    """Receive one frame; raises ``ConnectionError``/``socket.timeout``."""
    length = _check_length(_LENGTH.unpack(_recv_exact(sock, _LENGTH.size))[0])
    return decode_frame_body(_recv_exact(sock, length))


# ------------------------------------------------------ incremental decoder


class FrameDecoder:
    """Decode frames from a byte stream fed in arbitrary pieces.

    :meth:`next_message` returns the next complete message, or ``None``
    until :meth:`feed` supplies the rest of it; iterating yields every
    complete message in order.  A length over :data:`MAX_FRAME` or an
    undecodable body raises :class:`ProtocolError` at that frame, after the
    frames before it.
    """

    __slots__ = ("_buffer", "_start")

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Offset of the first undecoded byte: the decoded prefix is cut off
        #: once a feed is used up, not once per frame.
        self._start = 0

    def feed(self, data: bytes) -> None:
        """Append bytes received from the peer."""
        self._buffer += data

    def next_message(self) -> Optional[Dict[str, object]]:
        buffer, start = self._buffer, self._start
        if len(buffer) - start >= _HEADER:
            length = _check_length(_LENGTH.unpack_from(buffer, start)[0])
            end = start + _HEADER + length
            if end <= len(buffer):
                self._start = end
                return decode_frame_body(buffer[start + _HEADER : end])
        if start:
            del buffer[:start]
            self._start = 0
        return None

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.next_message, None)

    def recv(self, sock: socket.socket) -> Dict[str, object]:
        """The next message from a blocking socket, reading only when needed
        (``socket.timeout`` passes through; bytes read so far are kept)."""
        message = self.next_message()
        while message is None:
            data = sock.recv(READ_BYTES)
            if not data:
                raise ConnectionError("peer closed the connection")
            self.feed(data)
            message = self.next_message()
        return message


# --------------------------------------------------------- listen addresses


def parse_listen_address(address: str) -> Tuple[str, int]:
    """Parse a ``tcp://host:port`` listen address (single endpoint)."""
    prefix = "tcp://"
    if not isinstance(address, str) or not address.startswith(prefix):
        raise ExperimentError(
            f"daemon listen address must look like tcp://HOST:PORT, got {address!r}"
        )
    host, _, port = address[len(prefix) :].rpartition(":")
    if not host or not port.isdigit():
        raise ExperimentError(
            f"daemon listen address must look like tcp://HOST:PORT, got {address!r}"
        )
    return host, int(port)
