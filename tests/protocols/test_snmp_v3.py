"""Tests for SNMPv3 message building/parsing and the discovery exchange."""

import pytest

from repro.errors import MalformedMessageError
from repro.net.endpoint import LoopbackConnection
from repro.protocols.snmp.client import SnmpScanClient
from repro.protocols.snmp.engine import SnmpEngineBehavior, SnmpEngineConfig
from repro.protocols.snmp.engine_id import EngineId
from repro.protocols.snmp.v3 import (
    MSG_FLAG_REPORTABLE,
    PDU_GET_REQUEST,
    PDU_REPORT,
    USM_STATS_UNKNOWN_ENGINE_IDS,
    SnmpV3Message,
    UsmSecurityParameters,
    build_discovery_report,
    build_discovery_request,
)


class TestUsmParameters:
    def test_roundtrip(self):
        original = UsmSecurityParameters(
            engine_id=b"\x80\x00\x1f\x88\x03\x01\x02\x03\x04\x05\x06",
            engine_boots=12,
            engine_time=345678,
            user_name=b"",
        )
        assert UsmSecurityParameters.parse(original.encode()) == original

    def test_empty_parameters(self):
        original = UsmSecurityParameters()
        parsed = UsmSecurityParameters.parse(original.encode())
        assert parsed.engine_id == b""
        assert parsed.engine_boots == 0


class TestDiscoveryMessages:
    def test_request_is_reportable_get(self):
        request = SnmpV3Message.parse(build_discovery_request(msg_id=42))
        assert request.msg_id == 42
        assert request.pdu_type == PDU_GET_REQUEST
        assert request.msg_flags & MSG_FLAG_REPORTABLE
        assert request.security_parameters.engine_id == b""

    def test_report_carries_engine_id_and_counters(self):
        engine_id = EngineId.generate("agent-1")
        report = SnmpV3Message.parse(
            build_discovery_report(msg_id=42, engine_id=engine_id, engine_boots=7, engine_time=1234)
        )
        assert report.pdu_type == PDU_REPORT
        assert report.security_parameters.engine_id == engine_id.encode()
        assert report.security_parameters.engine_boots == 7
        assert report.security_parameters.engine_time == 1234
        assert report.varbinds[0][0] == USM_STATS_UNKNOWN_ENGINE_IDS
        assert report.varbinds[0][1] == 1

    def test_message_roundtrip_with_varbinds(self):
        message = SnmpV3Message(
            msg_id=9,
            pdu_type=PDU_REPORT,
            request_id=9,
            varbinds=((USM_STATS_UNKNOWN_ENGINE_IDS, 5),),
        )
        parsed = SnmpV3Message.parse(message.encode())
        assert parsed.msg_id == 9
        assert parsed.varbinds == ((USM_STATS_UNKNOWN_ENGINE_IDS, 5),)

    def test_negative_counter_value_is_refused(self):
        # Written under the unsigned Counter32 tag, -1 would read back as 255.
        message = SnmpV3Message(msg_id=1, varbinds=((USM_STATS_UNKNOWN_ENGINE_IDS, -1),))
        with pytest.raises(MalformedMessageError, match="-1"):
            message.encode()
        zero = SnmpV3Message(msg_id=1, varbinds=((USM_STATS_UNKNOWN_ENGINE_IDS, 0),))
        assert SnmpV3Message.parse(zero.encode()).varbinds == zero.varbinds


class TestDiscoveryExchange:
    def test_client_extracts_engine_identifier(self):
        config = SnmpEngineConfig.generate("device-42")
        record = SnmpScanClient().scan("192.0.2.5", LoopbackConnection(SnmpEngineBehavior(config)))
        assert record.success
        assert record.has_identifier
        assert record.engine_id_hex == config.engine_id.hex()
        assert record.engine_boots == config.engine_boots
        assert record.engine_id == config.engine_id

    def test_same_config_two_addresses_same_engine_id(self):
        config = SnmpEngineConfig.generate("device-43")
        record_a = SnmpScanClient().scan("192.0.2.6", LoopbackConnection(SnmpEngineBehavior(config)))
        record_b = SnmpScanClient().scan("192.0.2.7", LoopbackConnection(SnmpEngineBehavior(config)))
        assert record_a.engine_id_hex == record_b.engine_id_hex

    def test_non_responding_agent(self):
        config = SnmpEngineConfig(engine_id=EngineId.generate("device-44"), responds=False)
        record = SnmpScanClient().scan("192.0.2.8", LoopbackConnection(SnmpEngineBehavior(config)))
        assert not record.success
        assert not record.has_identifier

    def test_engine_time_advances_with_clock(self):
        config = SnmpEngineConfig.generate("device-45")
        early = SnmpScanClient().scan("192.0.2.9", LoopbackConnection(SnmpEngineBehavior(config, now=0.0)))
        late = SnmpScanClient().scan("192.0.2.9", LoopbackConnection(SnmpEngineBehavior(config, now=600.0)))
        assert late.engine_time - early.engine_time == 600

    def test_garbage_request_ignored_by_engine(self):
        behavior = SnmpEngineBehavior(SnmpEngineConfig.generate("device-46"))
        assert behavior.on_data(b"not-ber-at-all") == b""
