"""Tests for SNMP engine ID formats."""

import pytest

from repro.errors import MalformedMessageError
from repro.protocols.snmp.engine_id import (
    ENTERPRISE_CISCO,
    ENTERPRISE_NETSNMP,
    EngineId,
    EngineIdFormat,
)


class TestEncodeParse:
    def test_mac_roundtrip(self):
        original = EngineId.from_mac(ENTERPRISE_CISCO, bytes.fromhex("0050569a1b2c"))
        parsed = EngineId.parse(original.encode())
        assert parsed == original

    def test_ipv4_roundtrip(self):
        original = EngineId(
            enterprise=ENTERPRISE_NETSNMP,
            id_format=EngineIdFormat.IPV4,
            data=bytes([192, 0, 2, 33]),
        )
        parsed = EngineId.parse(original.encode())
        assert parsed.id_format is EngineIdFormat.IPV4
        assert parsed.data == bytes([192, 0, 2, 33])

    def test_text_roundtrip(self):
        original = EngineId(
            enterprise=ENTERPRISE_NETSNMP, id_format=EngineIdFormat.TEXT, data=b"core-router-01"
        )
        parsed = EngineId.parse(original.encode())
        assert parsed.id_format is EngineIdFormat.TEXT
        assert parsed.data == b"core-router-01"

    def test_high_bit_set_in_encoding(self):
        encoded = EngineId.generate("seed").encode()
        assert encoded[0] & 0x80

    def test_legacy_engine_id_without_high_bit(self):
        raw = (9).to_bytes(4, "big") + b"\x01\x02\x03\x04\x05"
        parsed = EngineId.parse(raw)
        assert parsed.enterprise == 9
        assert parsed.id_format is EngineIdFormat.OCTETS

    def test_wrong_mac_length_rejected(self):
        with pytest.raises(MalformedMessageError):
            EngineId.from_mac(9, b"\x00" * 4)

    def test_out_of_range_length_rejected(self):
        with pytest.raises(MalformedMessageError):
            EngineId.parse(b"\x80\x00\x00\x09")
        with pytest.raises(MalformedMessageError):
            EngineId.parse(b"\x80\x00\x00\x09" + b"\x00" * 40)


class TestGenerate:
    def test_deterministic(self):
        assert EngineId.generate("router-a") == EngineId.generate("router-a")

    def test_distinct_seeds_distinct_ids(self):
        ids = {EngineId.generate(f"device-{i}").hex() for i in range(100)}
        assert len(ids) == 100

    def test_hex_matches_encode(self):
        engine_id = EngineId.generate("x")
        assert bytes.fromhex(engine_id.hex()) == engine_id.encode()
