"""Tests for BGP message wire formats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MalformedMessageError, TruncatedMessageError
from repro.protocols.bgp.capabilities import Capability
from repro.protocols.bgp.messages import (
    AS_TRANS,
    BgpErrorCode,
    BgpKeepalive,
    BgpNotification,
    BgpOpen,
    CeaseSubcode,
    parse_message,
    parse_messages,
)


class TestOpen:
    def test_roundtrip(self):
        original = BgpOpen(
            my_as=3320,
            hold_time=180,
            bgp_identifier="148.170.0.33",
            capabilities=(Capability.route_refresh_cisco(), Capability.route_refresh()),
        )
        parsed, rest = parse_message(original.build())
        assert parsed == original
        assert rest == b""

    def test_header_layout(self):
        wire = BgpOpen(bgp_identifier="10.0.0.1").build()
        assert wire[:16] == b"\xff" * 16
        assert wire[18] == 1  # type OPEN
        length = int.from_bytes(wire[16:18], "big")
        assert length == len(wire)

    def test_paper_example_length(self):
        # The paper's Figure 2 OPEN: 2 capabilities, each 2 bytes of value-less
        # capability wrapped in its own optional parameter => length 37.
        message = BgpOpen(
            my_as=AS_TRANS,
            hold_time=90,
            bgp_identifier="148.170.0.33",
            capabilities=(Capability.route_refresh_cisco(), Capability.route_refresh()),
        )
        assert message.message_length == 37

    def test_effective_asn_prefers_four_octet_capability(self):
        message = BgpOpen(my_as=AS_TRANS, capabilities=(Capability.four_octet_as(396982),))
        assert message.effective_asn == 396982

    def test_effective_asn_falls_back_to_my_as(self):
        assert BgpOpen(my_as=64512).effective_asn == 64512

    def test_truncated_open_raises(self):
        wire = BgpOpen().build()
        with pytest.raises(TruncatedMessageError):
            parse_message(wire[: len(wire) - 1])


class TestNotification:
    def test_roundtrip_connection_rejected(self):
        original = BgpNotification()
        parsed, _ = parse_message(original.build())
        assert parsed.error_code == BgpErrorCode.CEASE
        assert parsed.error_subcode == CeaseSubcode.CONNECTION_REJECTED

    def test_roundtrip_with_data(self):
        original = BgpNotification(error_code=2, error_subcode=7, data=b"\x01\x02")
        parsed, _ = parse_message(original.build())
        assert parsed == original


class TestKeepalive:
    def test_roundtrip(self):
        parsed, rest = parse_message(BgpKeepalive().build())
        assert parsed == BgpKeepalive()
        assert rest == b""

    def test_length_is_19(self):
        assert len(BgpKeepalive().build()) == 19


class TestStreamParsing:
    def test_open_then_notification(self):
        stream = BgpOpen(bgp_identifier="10.1.1.1").build() + BgpNotification().build()
        messages = parse_messages(stream)
        assert len(messages) == 2
        assert isinstance(messages[0], BgpOpen)
        assert isinstance(messages[1], BgpNotification)

    def test_bad_marker_raises(self):
        wire = bytearray(BgpOpen().build())
        wire[0] = 0x00
        with pytest.raises(MalformedMessageError):
            parse_message(bytes(wire))

    def test_implausible_length_raises(self):
        wire = b"\xff" * 16 + (10).to_bytes(2, "big") + b"\x01"
        with pytest.raises(MalformedMessageError):
            parse_message(wire)

    def test_unknown_type_raises(self):
        wire = b"\xff" * 16 + (19).to_bytes(2, "big") + b"\x07"
        with pytest.raises(MalformedMessageError):
            parse_message(wire)

    def test_parse_messages_ignores_trailing_garbage(self):
        stream = BgpOpen().build() + b"\xff\xff"
        assert len(parse_messages(stream)) == 1

    def test_empty_stream(self):
        assert parse_messages(b"") == []

    def test_parse_messages_stops_at_the_first_malformed_message(self):
        unsupported = b"\xff" * 16 + (19).to_bytes(2, "big") + b"\x07"
        stream = BgpOpen().build() + unsupported + BgpNotification().build()
        assert parse_messages(stream) == [BgpOpen()]


@given(
    asn=st.integers(min_value=1, max_value=0xFFFF),
    hold_time=st.integers(min_value=0, max_value=0xFFFF),
    identifier=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_open_roundtrip_property(asn, hold_time, identifier):
    import ipaddress

    original = BgpOpen(
        my_as=asn,
        hold_time=hold_time,
        bgp_identifier=str(ipaddress.IPv4Address(identifier)),
    )
    parsed, rest = parse_message(original.build())
    assert parsed == original
    assert rest == b""
