"""Length-prefixed frames: what actually crosses a socket.

A frame is::

    magic "Cw" · version byte · uvarint body length · body · CRC32(body)

The magic/version prefix rejects foreign or future-format streams
before any decoding happens; the CRC rejects bit-rot and torn writes
(same posture as the storage layer's record framing); the length prefix
lets a stream reader find frame boundaries without parsing bodies.

:class:`FrameDecoder` is the incremental flip side for sockets: feed it
byte chunks as they arrive, collect complete messages.  A chunk that
holds whole frames — the common case — is parsed where it lies; only
the bytes of an incomplete trailing frame are buffered, and each frame's
header is parsed once however many chunks the frame arrives in.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from repro.errors import SerializationError
from repro.wire.values import decode_value, encode_value
from repro.wire.varint import write_uvarint

WIRE_MAGIC = b"Cw"
#: 2: CRDT payload bodies may travel as sized blobs (``T_SIZED``), which a
#: version-1 reader would reject as an unknown value tag.
WIRE_VERSION = 2

_PREFIX = WIRE_MAGIC + bytes([WIRE_VERSION])
_PREFIX_BYTES = len(_PREFIX)
#: Longest possible frame header: magic + version + 10-byte uvarint.
_MAX_HEADER = _PREFIX_BYTES + 10
_CRC_BYTES = 4
_read_crc = struct.Struct(">I").unpack_from


def encode_body(message: Any, strict: bool = False) -> bytes:
    """Encode a message body (no frame) — the unit wire sizes measure.

    ``strict`` forbids the pickle escape hatch: an unregistered type
    raises :class:`SerializationError` at the sender instead of silently
    bloating the frame with a non-canonical pickle blob.  The socket
    path (:mod:`repro.net.stream`) runs strict by default.
    """
    out = bytearray()
    encode_value(message, out, strict)
    return bytes(out)


def decode_body(data) -> Any:
    """Decode one message body; trailing bytes are an error."""
    value, pos = decode_value(data, 0)
    if pos != len(data):
        raise SerializationError(f"{len(data) - pos} trailing bytes in body")
    return value


def encode_frame(message: Any, strict: bool = False) -> bytes:
    """Encode ``message`` as one self-delimiting checked frame.

    ``strict`` is threaded through to the value encoder: unregistered
    types fail loudly at the sender rather than falling back to pickle.

    The body is encoded into one buffer, checksummed where it lies, and
    copied once — into the frame, between its header and its CRC.
    """
    body = bytearray()
    encode_value(message, body, strict)
    header = bytearray(_PREFIX)
    write_uvarint(header, len(body))
    return b"".join((header, body, zlib.crc32(body).to_bytes(_CRC_BYTES, "big")))


def _frame_body(buf: bytes, pos: int) -> tuple[int, int] | None:
    """Parse the frame header at ``pos``: ``(body start, body end)``, or
    ``None`` while the header is still arriving.  Bad magic, an unknown
    version and an over-long length varint raise."""
    limit = len(buf)
    if limit - pos < _PREFIX_BYTES:
        return None
    if buf[pos : pos + len(WIRE_MAGIC)] != WIRE_MAGIC:
        raise SerializationError("not a wire frame (bad magic)")
    version = buf[pos + len(WIRE_MAGIC)]
    if version != WIRE_VERSION:
        raise SerializationError(
            f"unsupported wire version {version} (expected {WIRE_VERSION})"
        )
    at = pos + _PREFIX_BYTES
    length = shift = 0
    while True:
        if at >= limit:
            return None
        if at - pos >= _MAX_HEADER:
            raise SerializationError("frame length varint too long")
        byte = buf[at]
        at += 1
        length |= (byte & 0x7F) << shift
        if byte < 0x80:
            return at, at + length
        shift += 7


def _checked_body(buf: bytes, start: int, end: int) -> Any:
    """Verify the CRC that follows ``buf[start:end]`` and decode it."""
    if zlib.crc32(buf[start:end]) != _read_crc(buf, end)[0]:
        raise SerializationError("frame CRC mismatch")
    message, used = decode_value(buf, start)
    if used != end:
        raise SerializationError(
            f"frame body is {end - start} bytes but its value ends at {used - start}"
        )
    return message


def decode_frame(data) -> tuple[Any, int]:
    """Decode one frame at the start of ``data``.

    Returns ``(message, bytes_consumed)``; raises
    :class:`SerializationError` on bad magic, unknown version, CRC
    mismatch, or truncation.
    """
    if type(data) is not bytes:
        data = bytes(data)
    extent = _frame_body(data, 0)
    if extent is None:
        raise SerializationError("truncated frame header")
    start, end = extent
    if end + _CRC_BYTES > len(data):
        raise SerializationError("truncated frame body")
    return _checked_body(data, start, end), end + _CRC_BYTES


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    ``feed()`` returns every message completed by the new chunk.  A
    malformed frame raises and poisons the decoder — on a real
    connection the only safe response to framing corruption is to drop
    the link, since frame boundaries are lost.
    """

    __slots__ = ("_pending", "_need", "_poisoned", "frames_decoded", "bytes_decoded")

    def __init__(self) -> None:
        #: Bytes of the one incomplete frame at the head of the stream.
        self._pending = bytearray()
        #: How long ``_pending`` must get before it is worth parsing again.
        self._need = 0
        self._poisoned = False
        self.frames_decoded = 0
        self.bytes_decoded = 0

    def feed(self, data: bytes) -> list[Any]:
        """Take the next chunk of the stream; return every message it
        completes."""
        if self._poisoned:
            raise SerializationError("decoder poisoned by an earlier bad frame")
        pending = self._pending
        if pending:
            pending += data
            if len(pending) < self._need:
                return []
            data = bytes(pending)
            pending.clear()
        elif type(data) is not bytes:
            data = bytes(data)
        messages: list[Any] = []
        pos, limit = 0, len(data)
        need = 0
        try:
            while pos < limit:
                at = pos + _PREFIX_BYTES
                if at < limit and data[at] < 0x80 and data.startswith(_PREFIX, pos):
                    # The usual header: a body under 128 bytes.
                    start = at + 1
                    end = start + data[at]
                else:
                    extent = _frame_body(data, pos)
                    if extent is None:
                        need = limit - pos + 1  # header still arriving
                        break
                    start, end = extent
                if end + _CRC_BYTES > limit:
                    need = end + _CRC_BYTES - pos  # body/CRC still arriving
                    break
                messages.append(_checked_body(data, start, end))
                pos = end + _CRC_BYTES
        except SerializationError:
            self._poisoned = True
            raise
        if need:
            pending += data[pos:]
            self._need = need
        self.frames_decoded += len(messages)
        self.bytes_decoded += pos
        return messages

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._pending)
