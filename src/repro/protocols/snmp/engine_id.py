"""SNMP engine ID formats (RFC 3411 appendix).

An SNMPv3 engine ID is 5 to 32 octets.  The common modern form starts with a
4-octet private enterprise number with the high bit set, followed by a format
octet and format-specific data (IPv4 address, MAC address, text, or opaque
octets).  The engine ID is generated when the agent is configured and is the
same for every interface of the device, which is what makes it usable for
alias resolution and dual-stack inference.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

from repro.errors import MalformedMessageError


class EngineIdFormat(enum.IntEnum):
    """Engine ID format octet values."""

    IPV4 = 1
    IPV6 = 2
    MAC = 3
    TEXT = 4
    OCTETS = 5


# A few private enterprise numbers seen on real devices, used by the
# topology generator to make engine IDs look realistic per vendor.
ENTERPRISE_CISCO = 9
ENTERPRISE_JUNIPER = 2636
ENTERPRISE_HUAWEI = 2011
ENTERPRISE_NETSNMP = 8072
ENTERPRISE_MIKROTIK = 14988


@dataclasses.dataclass(frozen=True)
class EngineId:
    """A parsed or to-be-encoded SNMP engine ID."""

    enterprise: int
    id_format: EngineIdFormat
    data: bytes

    def encode(self) -> bytes:
        """Encode to the on-wire octet string."""
        if not 0 < self.enterprise < (1 << 31):
            raise MalformedMessageError("enterprise number out of range")
        encoded = ((1 << 31) | self.enterprise).to_bytes(4, "big")
        encoded += bytes([int(self.id_format)]) + self.data
        if not 5 <= len(encoded) <= 32:
            raise MalformedMessageError("engine ID must be 5..32 octets")
        return encoded

    @classmethod
    def parse(cls, raw: bytes) -> "EngineId":
        """Parse an on-wire engine ID octet string.

        Legacy (RFC 1910-style) engine IDs without the high bit are kept as
        OCTETS format with the raw trailing bytes.
        """
        if not 5 <= len(raw) <= 32:
            raise MalformedMessageError("engine ID must be 5..32 octets")
        first_word = int.from_bytes(raw[:4], "big")
        enterprise = first_word & 0x7FFFFFFF
        if not first_word & 0x80000000:
            return cls(enterprise=enterprise, id_format=EngineIdFormat.OCTETS, data=raw[4:])
        try:
            id_format = EngineIdFormat(raw[4])
        except ValueError:
            id_format = EngineIdFormat.OCTETS
        return cls(enterprise=enterprise, id_format=id_format, data=raw[5:])

    @classmethod
    def from_mac(cls, enterprise: int, mac: bytes) -> "EngineId":
        """Build a MAC-address-based engine ID."""
        if len(mac) != 6:
            raise MalformedMessageError("MAC addresses are 6 octets")
        return cls(enterprise=enterprise, id_format=EngineIdFormat.MAC, data=mac)

    @classmethod
    def generate(cls, seed: str, enterprise: int = ENTERPRISE_NETSNMP) -> "EngineId":
        """Deterministically derive a MAC-format engine ID from ``seed``."""
        mac = hashlib.sha256(f"engine:{seed}".encode()).digest()[:6]
        return cls.from_mac(enterprise, mac)

    def hex(self) -> str:
        """Hexadecimal rendering of the full engine ID."""
        return self.encode().hex()
