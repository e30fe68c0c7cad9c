"""BGP-4 message wire formats (RFC 4271).

Every BGP message starts with a 19-byte header: a 16-byte all-ones marker, a
2-byte length covering the whole message, and a 1-byte type.  The scan only
ever observes OPEN (type 1), NOTIFICATION (type 3) and occasionally
KEEPALIVE (type 4) messages, so those are the ones modelled.
"""

from __future__ import annotations

import dataclasses
import enum
import ipaddress
import struct

from repro.errors import MalformedMessageError, ProtocolError, TruncatedMessageError
from repro.protocols.bgp.capabilities import (
    Capability,
    encode_optional_parameters,
    parse_optional_parameters,
)

MARKER = b"\xff" * 16
HEADER_LENGTH = 19
MAX_MESSAGE_LENGTH = 4096
AS_TRANS = 23456


class BgpMessageType(enum.IntEnum):
    """BGP message types."""

    OPEN = 1
    UPDATE = 2
    NOTIFICATION = 3
    KEEPALIVE = 4


class BgpErrorCode(enum.IntEnum):
    """NOTIFICATION major error codes."""

    MESSAGE_HEADER_ERROR = 1
    OPEN_MESSAGE_ERROR = 2
    UPDATE_MESSAGE_ERROR = 3
    HOLD_TIMER_EXPIRED = 4
    FINITE_STATE_MACHINE_ERROR = 5
    CEASE = 6


class CeaseSubcode(enum.IntEnum):
    """Cease subcodes (RFC 4486)."""

    MAX_PREFIXES_REACHED = 1
    ADMINISTRATIVE_SHUTDOWN = 2
    PEER_DECONFIGURED = 3
    ADMINISTRATIVE_RESET = 4
    CONNECTION_REJECTED = 5
    OTHER_CONFIGURATION_CHANGE = 6


def _pack_header(message_type: BgpMessageType, body: bytes) -> bytes:
    length = HEADER_LENGTH + len(body)
    if length > MAX_MESSAGE_LENGTH:
        raise MalformedMessageError("BGP message exceeds 4096 bytes")
    return MARKER + struct.pack(">HB", length, int(message_type)) + body


@dataclasses.dataclass(frozen=True)
class BgpOpen:
    """A BGP OPEN message.

    Attributes:
        version: BGP version, always 4.
        my_as: the 2-octet ASN field; AS_TRANS (23456) when the real ASN
            needs four octets.
        hold_time: proposed hold time in seconds.
        bgp_identifier: the 4-octet BGP Identifier rendered in dotted-quad
            form (it is conventionally set to a router IPv4 address).
        capabilities: advertised capabilities.
    """

    version: int = 4
    my_as: int = AS_TRANS
    hold_time: int = 90
    bgp_identifier: str = "0.0.0.0"
    capabilities: tuple[Capability, ...] = ()

    def build(self) -> bytes:
        identifier = int(ipaddress.IPv4Address(self.bgp_identifier))
        optional = encode_optional_parameters(list(self.capabilities))
        if len(optional) > 255:
            raise MalformedMessageError("optional parameters exceed 255 bytes")
        body = struct.pack(
            ">BHHIB",
            self.version,
            self.my_as,
            self.hold_time,
            identifier,
            len(optional),
        ) + optional
        return _pack_header(BgpMessageType.OPEN, body)

    @classmethod
    def parse_body(cls, body: bytes) -> "BgpOpen":
        if len(body) < 10:
            raise TruncatedMessageError("OPEN body shorter than 10 bytes")
        version, my_as, hold_time, identifier, optional_length = struct.unpack(">BHHIB", body[:10])
        optional = body[10 : 10 + optional_length]
        if len(optional) < optional_length:
            raise TruncatedMessageError("OPEN optional parameters truncated")
        capabilities = tuple(parse_optional_parameters(optional))
        return cls(
            version=version,
            my_as=my_as,
            hold_time=hold_time,
            bgp_identifier=str(ipaddress.IPv4Address(identifier)),
            capabilities=capabilities,
        )

    @property
    def effective_asn(self) -> int:
        """The speaker's ASN, preferring the four-octet capability over My AS."""
        for capability in self.capabilities:
            asn = capability.four_octet_asn
            if asn is not None:
                return asn
        return self.my_as

    @property
    def message_length(self) -> int:
        """The on-wire length of this message (part of the paper's identifier)."""
        return len(self.build())


@dataclasses.dataclass(frozen=True)
class BgpNotification:
    """A BGP NOTIFICATION message."""

    error_code: int = BgpErrorCode.CEASE
    error_subcode: int = CeaseSubcode.CONNECTION_REJECTED
    data: bytes = b""

    def build(self) -> bytes:
        body = struct.pack("BB", self.error_code, self.error_subcode) + self.data
        return _pack_header(BgpMessageType.NOTIFICATION, body)

    @classmethod
    def parse_body(cls, body: bytes) -> "BgpNotification":
        if len(body) < 2:
            raise TruncatedMessageError("NOTIFICATION body shorter than 2 bytes")
        return cls(error_code=body[0], error_subcode=body[1], data=body[2:])


@dataclasses.dataclass(frozen=True)
class BgpKeepalive:
    """A BGP KEEPALIVE message (header only)."""

    def build(self) -> bytes:
        return _pack_header(BgpMessageType.KEEPALIVE, b"")

    @classmethod
    def parse_body(cls, body: bytes) -> "BgpKeepalive":
        if body:
            raise MalformedMessageError("KEEPALIVE must have no body")
        return cls()


BgpMessage = BgpOpen | BgpNotification | BgpKeepalive


def parse_message(data: bytes) -> tuple[BgpMessage, bytes]:
    """Parse one BGP message from ``data``; return (message, rest)."""
    if len(data) < HEADER_LENGTH:
        raise TruncatedMessageError("BGP header incomplete")
    if data[:16] != MARKER:
        raise MalformedMessageError("BGP marker is not all ones")
    length, message_type = struct.unpack(">HB", data[16:19])
    if length < HEADER_LENGTH or length > MAX_MESSAGE_LENGTH:
        raise MalformedMessageError(f"implausible BGP message length {length}")
    if len(data) < length:
        raise TruncatedMessageError("BGP message body incomplete")
    body = data[HEADER_LENGTH:length]
    rest = data[length:]
    if message_type == BgpMessageType.OPEN:
        return BgpOpen.parse_body(body), rest
    if message_type == BgpMessageType.NOTIFICATION:
        return BgpNotification.parse_body(body), rest
    if message_type == BgpMessageType.KEEPALIVE:
        return BgpKeepalive.parse_body(body), rest
    raise MalformedMessageError(f"unsupported BGP message type {message_type}")


def parse_messages(data: bytes) -> list[BgpMessage]:
    """Parse every complete message in ``data``; trailing garbage is ignored.

    Parsing stops at the first truncated or malformed message and keeps
    the messages before it, so a speaker's bad bytes degrade its scan
    record instead of aborting the campaign.
    """
    messages: list[BgpMessage] = []
    rest = data
    while rest:
        try:
            message, rest = parse_message(rest)
        except ProtocolError:
            break
        messages.append(message)
    return messages
