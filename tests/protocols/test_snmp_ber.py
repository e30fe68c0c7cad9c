"""Tests for the minimal BER codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MalformedMessageError, TruncatedMessageError
from repro.protocols.snmp import ber


class TestInteger:
    def test_zero(self):
        assert ber.encode_integer(0) == b"\x02\x01\x00"
        assert ber.decode_exact(ber.encode_integer(0)).value == 0

    def test_positive_roundtrip(self):
        for value in (1, 127, 128, 255, 256, 65535, 2**31 - 1):
            assert ber.decode_exact(ber.encode_integer(value)).value == value

    def test_negative_roundtrip(self):
        for value in (-1, -128, -129, -65536):
            assert ber.decode_exact(ber.encode_integer(value)).value == value

    def test_minimal_encoding_of_127_and_128(self):
        assert ber.encode_integer(127) == b"\x02\x01\x7f"
        assert ber.encode_integer(128) == b"\x02\x02\x00\x80"


class TestOctetStringAndNull:
    def test_octet_string_roundtrip(self):
        assert ber.decode_exact(ber.encode_octet_string(b"engine-id")).value == b"engine-id"

    def test_empty_octet_string(self):
        assert ber.decode_exact(ber.encode_octet_string(b"")).value == b""

    def test_null(self):
        value = ber.decode_exact(ber.encode_null())
        assert value.tag == ber.TAG_NULL
        assert value.value is None

    def test_long_form_length(self):
        payload = b"x" * 300
        encoded = ber.encode_octet_string(payload)
        assert ber.decode_exact(encoded).value == payload


class TestOid:
    def test_usm_stats_oid_roundtrip(self):
        oid = (1, 3, 6, 1, 6, 3, 15, 1, 1, 4, 0)
        assert ber.decode_exact(ber.encode_oid(oid)).value == oid

    def test_large_component(self):
        oid = (1, 3, 6, 1, 4, 1, 2636, 3, 1)
        assert ber.decode_exact(ber.encode_oid(oid)).value == oid

    def test_too_short_oid_rejected(self):
        with pytest.raises(MalformedMessageError):
            ber.encode_oid((1,))


class TestSequence:
    def test_nested_sequence(self):
        inner = ber.encode_sequence(ber.encode_integer(3), ber.encode_octet_string(b"abc"))
        outer = ber.encode_sequence(inner, ber.encode_null())
        decoded = ber.decode_exact(outer)
        assert decoded.is_constructed
        assert len(decoded.value) == 2
        assert decoded.value[0].value[0].value == 3
        assert decoded.value[0].value[1].value == b"abc"

    def test_context_constructed_tag(self):
        pdu = ber.encode_sequence(ber.encode_integer(7), tag=0xA8)
        decoded = ber.decode_exact(pdu)
        assert decoded.tag == 0xA8
        assert decoded.value[0].value == 7


class TestErrors:
    def test_truncated_content_raises(self):
        encoded = ber.encode_octet_string(b"abcdef")
        with pytest.raises(TruncatedMessageError):
            ber.decode(encoded[:-2])

    def test_trailing_bytes_rejected_by_decode_exact(self):
        with pytest.raises(MalformedMessageError):
            ber.decode_exact(ber.encode_null() + b"\x00")

    def test_null_with_content_rejected(self):
        with pytest.raises(MalformedMessageError):
            ber.decode(b"\x05\x01\x00")

    def test_truncated_member_inside_a_complete_sequence_raises(self):
        member = ber.encode_octet_string(b"engine")
        for cut in range(1, len(member)):
            with pytest.raises(TruncatedMessageError):
                ber.decode(ber.encode_tlv(ber.TAG_SEQUENCE, member[:cut]))

    def test_long_form_length_errors(self):
        with pytest.raises(MalformedMessageError):
            ber.decode(b"\x04\x85" + b"\x00" * 8)
        with pytest.raises(MalformedMessageError):
            ber.decode(b"\x04\x80\x00")
        with pytest.raises(TruncatedMessageError):
            ber.decode(b"\x04\x82\x01")

    def test_unterminated_oid_subidentifier_rejected(self):
        # X.690 8.19.2: the last octet of every sub-identifier has bit 8 clear.
        with pytest.raises(MalformedMessageError):
            ber.decode_exact(bytes([0x06, 0x03, 0x2B, 0x06, 0x81]))


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_integer_roundtrip_property(value):
    assert ber.decode_exact(ber.encode_integer(value)).value == value


@given(st.binary(max_size=600))
def test_octet_string_roundtrip_property(value):
    assert ber.decode_exact(ber.encode_octet_string(value)).value == value


@given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=0, max_size=8))
def test_oid_roundtrip_property(tail):
    oid = (1, 3) + tuple(tail)
    assert ber.decode_exact(ber.encode_oid(oid)).value == oid
