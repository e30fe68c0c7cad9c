"""Tests for the ICMP message model."""

from repro.net.icmp import IcmpMessage, IcmpType


class TestIcmp:
    def test_port_unreachable_detection(self):
        message = IcmpMessage(
            icmp_type=IcmpType.DEST_UNREACHABLE,
            code=3,
            source="192.0.2.254",
            quoted_destination="192.0.2.1",
        )
        assert message.is_port_unreachable

    def test_other_unreachable_codes_are_not_port_unreachable(self):
        message = IcmpMessage(icmp_type=IcmpType.DEST_UNREACHABLE, code=1, source="192.0.2.254")
        assert not message.is_port_unreachable

    def test_echo_reply_is_not_port_unreachable(self):
        message = IcmpMessage(icmp_type=IcmpType.ECHO_REPLY, code=0, source="192.0.2.1")
        assert not message.is_port_unreachable
