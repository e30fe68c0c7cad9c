"""RFC 4251 data types and RFC 4253 binary packet framing.

SSH messages are built from a handful of primitive encodings: ``byte``,
``boolean``, ``uint32``, ``string`` (length-prefixed bytes), ``mpint``
(multiple-precision integer), and ``name-list`` (comma-separated names inside
a ``string``).  Before encryption is negotiated, each message travels inside a
*binary packet*: a 4-byte packet length, 1-byte padding length, the payload,
and random padding so that the total is a multiple of 8 bytes.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable

from repro.errors import MalformedMessageError, ProtocolError, TruncatedMessageError

MIN_PADDING = 4
BLOCK_SIZE = 8

_BYTE = struct.Struct("B")
_UINT32 = struct.Struct(">I")
_PACKET_HEADER = struct.Struct(">IB")


class SshWriter:
    """Incrementally build an SSH message payload."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def write_byte(self, value: int) -> "SshWriter":
        self._parts.append(_BYTE.pack(value))
        return self

    def write_boolean(self, value: bool) -> "SshWriter":
        return self.write_byte(1 if value else 0)

    def write_uint32(self, value: int) -> "SshWriter":
        self._parts.append(_UINT32.pack(value))
        return self

    def write_bytes(self, value: bytes) -> "SshWriter":
        """Write raw bytes with no length prefix (e.g. the KEXINIT cookie)."""
        self._parts.append(value)
        return self

    def write_string(self, value: bytes) -> "SshWriter":
        self._parts += (_UINT32.pack(len(value)), value)
        return self

    def write_name_list(self, names: Iterable[str]) -> "SshWriter":
        return self.write_string(",".join(names).encode("ascii"))

    def write_mpint(self, value: int) -> "SshWriter":
        """Write a multiple-precision integer (two's complement, big endian)."""
        if value == 0:
            return self.write_string(b"")
        if value < 0:
            raise MalformedMessageError("negative mpints are not used in this library")
        length = (value.bit_length() + 7) // 8
        encoded = value.to_bytes(length, "big")
        if encoded[0] & 0x80:
            encoded = b"\x00" + encoded
        return self.write_string(encoded)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class SshReader:
    """Sequentially parse an SSH message payload.

    Each read checks the bytes it needs against the payload's length and
    reads fixed-width fields in place at the current offset.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _truncated(self, count: int) -> TruncatedMessageError:
        return TruncatedMessageError(
            f"needed {count} bytes, only {len(self._data) - self._offset} remain"
        )

    def read_byte(self) -> int:
        offset = self._offset
        if offset >= len(self._data):
            raise self._truncated(1)
        self._offset = offset + 1
        return self._data[offset]

    def read_boolean(self) -> bool:
        return self.read_byte() != 0

    def read_uint32(self) -> int:
        offset = self._offset
        if offset + 4 > len(self._data):
            raise self._truncated(4)
        self._offset = offset + 4
        return _UINT32.unpack_from(self._data, offset)[0]

    def read_bytes(self, count: int) -> bytes:
        start = self._offset
        end = start + count
        if end > len(self._data):
            raise self._truncated(count)
        self._offset = end
        return self._data[start:end]

    def read_string(self) -> bytes:
        data = self._data
        start = self._offset + 4
        if start > len(data):
            raise self._truncated(4)
        (length,) = _UINT32.unpack_from(data, start - 4)
        self._offset = start
        end = start + length
        if end > len(data):
            raise self._truncated(length)
        self._offset = end
        return data[start:end]

    def read_name_list(self) -> list[str]:
        raw = self.read_string()
        if not raw:
            return []
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedMessageError("name-list is not ASCII") from exc
        return text.split(",")

    def read_mpint(self) -> int:
        raw = self.read_string()
        if not raw:
            return 0
        return int.from_bytes(raw, "big")


def frame_packet(payload: bytes, padding_byte: int = 0) -> bytes:
    """Wrap ``payload`` in an unencrypted SSH binary packet.

    The padding content is deterministic (``padding_byte`` repeated) so that
    message construction is reproducible; real implementations use random
    padding, but its content never affects parsing.
    """
    padding_length = BLOCK_SIZE - ((len(payload) + 5) % BLOCK_SIZE)
    if padding_length < MIN_PADDING:
        padding_length += BLOCK_SIZE
    packet_length = len(payload) + padding_length + 1
    return b"".join(
        (_PACKET_HEADER.pack(packet_length, padding_length), payload, bytes((padding_byte,)) * padding_length)
    )


def unframe_packet(data: bytes) -> tuple[bytes, bytes]:
    """Extract one packet payload from ``data``.

    Returns:
        ``(payload, rest)`` where ``rest`` is the remaining bytes after the
        packet.

    Raises:
        TruncatedMessageError: if ``data`` does not hold a complete packet.
        MalformedMessageError: if the length fields are inconsistent.
    """
    if len(data) < 5:
        raise TruncatedMessageError("packet header incomplete")
    packet_length, padding_length = _PACKET_HEADER.unpack_from(data)
    if packet_length < padding_length + 1:
        raise MalformedMessageError("packet length smaller than padding")
    total = 4 + packet_length
    if len(data) < total:
        raise TruncatedMessageError("packet body incomplete")
    payload_length = packet_length - padding_length - 1
    payload = data[5 : 5 + payload_length]
    return payload, data[total:]


def iter_packets(data: bytes):
    """Yield every well-formed packet payload at the start of ``data``.

    Iteration stops at the first truncated or malformed packet, keeping
    the payloads before it, so a peer's bad bytes degrade what it reads
    instead of raising.
    """
    rest = data
    while rest:
        try:
            payload, rest = unframe_packet(rest)
        except ProtocolError:
            return
        yield payload
