# src/repro/protocols/snmp/v3.py as it was before its parsers read each
# field by position, kept verbatim (its ``ber`` import names
# reference_ber) as the reference of the current module:
# test_codec_parity.py requires the same bytes and equal parses.  Do not
# "fix" this module.
"""SNMPv3 message building and parsing for the engine discovery exchange.

An SNMPv3 message is a BER SEQUENCE of four parts:

1. ``msgVersion`` (INTEGER 3),
2. ``msgGlobalData`` header SEQUENCE (msgID, msgMaxSize, msgFlags,
   msgSecurityModel),
3. ``msgSecurityParameters`` — an OCTET STRING containing the BER-encoded
   USM parameters (engine ID, engine boots, engine time, user name, auth and
   privacy parameters), and
4. the ``ScopedPDU`` — context engine ID, context name, and the PDU.

During *engine discovery* the manager sends a GET with an empty engine ID
and the ``reportable`` flag set; the agent answers with a REPORT PDU whose
security parameters carry its authoritative engine ID, boots and time — the
unique identifier used by the SNMPv3 alias-resolution baseline.
"""

from __future__ import annotations

import dataclasses

import reference_ber as ber

from repro.errors import MalformedMessageError
from repro.protocols.snmp.engine_id import EngineId

SNMP_VERSION_3 = 3
USM_SECURITY_MODEL = 3

MSG_FLAG_REPORTABLE = 0x04

PDU_GET_REQUEST = ber.CONTEXT_CONSTRUCTED_BASE | 0  # 0xA0
PDU_RESPONSE = ber.CONTEXT_CONSTRUCTED_BASE | 2     # 0xA2
PDU_REPORT = ber.CONTEXT_CONSTRUCTED_BASE | 8       # 0xA8

#: OID of usmStatsUnknownEngineIDs.0 — the counter reported during discovery.
USM_STATS_UNKNOWN_ENGINE_IDS = (1, 3, 6, 1, 6, 3, 15, 1, 1, 4, 0)


@dataclasses.dataclass(frozen=True)
class UsmSecurityParameters:
    """USM security parameters carried as a nested OCTET STRING."""

    engine_id: bytes = b""
    engine_boots: int = 0
    engine_time: int = 0
    user_name: bytes = b""
    authentication_parameters: bytes = b""
    privacy_parameters: bytes = b""

    def encode(self) -> bytes:
        sequence = ber.encode_sequence(
            ber.encode_octet_string(self.engine_id),
            ber.encode_integer(self.engine_boots),
            ber.encode_integer(self.engine_time),
            ber.encode_octet_string(self.user_name),
            ber.encode_octet_string(self.authentication_parameters),
            ber.encode_octet_string(self.privacy_parameters),
        )
        return sequence

    @classmethod
    def parse(cls, raw: bytes) -> "UsmSecurityParameters":
        value = ber.decode_exact(raw)
        if value.tag != ber.TAG_SEQUENCE or not isinstance(value.value, tuple) or len(value.value) != 6:
            raise MalformedMessageError("USM parameters must be a 6-element SEQUENCE")
        engine_id, boots, time_, user, auth, priv = value.value
        return cls(
            engine_id=bytes(engine_id.value),
            engine_boots=int(boots.value),
            engine_time=int(time_.value),
            user_name=bytes(user.value),
            authentication_parameters=bytes(auth.value),
            privacy_parameters=bytes(priv.value),
        )


@dataclasses.dataclass(frozen=True)
class SnmpV3Message:
    """A (subset of an) SNMPv3 message."""

    msg_id: int
    msg_max_size: int = 65507
    msg_flags: int = MSG_FLAG_REPORTABLE
    security_model: int = USM_SECURITY_MODEL
    security_parameters: UsmSecurityParameters = dataclasses.field(default_factory=UsmSecurityParameters)
    context_engine_id: bytes = b""
    context_name: bytes = b""
    pdu_type: int = PDU_GET_REQUEST
    request_id: int = 0
    error_status: int = 0
    error_index: int = 0
    varbinds: tuple[tuple[tuple[int, ...], int | bytes | None], ...] = ()

    def encode(self) -> bytes:
        header = ber.encode_sequence(
            ber.encode_integer(self.msg_id),
            ber.encode_integer(self.msg_max_size),
            ber.encode_octet_string(bytes([self.msg_flags])),
            ber.encode_integer(self.security_model),
        )
        varbind_list = b"".join(
            ber.encode_sequence(ber.encode_oid(oid), self._encode_varbind_value(value))
            for oid, value in self.varbinds
        )
        pdu = ber.encode_sequence(
            ber.encode_integer(self.request_id),
            ber.encode_integer(self.error_status),
            ber.encode_integer(self.error_index),
            ber.encode_sequence(varbind_list),
            tag=self.pdu_type,
        )
        scoped_pdu = ber.encode_sequence(
            ber.encode_octet_string(self.context_engine_id),
            ber.encode_octet_string(self.context_name),
            pdu,
        )
        return ber.encode_sequence(
            ber.encode_integer(SNMP_VERSION_3),
            header,
            ber.encode_octet_string(self.security_parameters.encode()),
            scoped_pdu,
        )

    @staticmethod
    def _encode_varbind_value(value: int | bytes | None) -> bytes:
        if value is None:
            return ber.encode_null()
        if isinstance(value, int):
            # Counter32 (application tag 1) is what usmStats uses; plain
            # INTEGER is accepted by parsers, so keep Counter32 for realism.
            return ber.encode_integer(value, tag=0x41)
        return ber.encode_octet_string(value)

    @classmethod
    def parse(cls, raw: bytes) -> "SnmpV3Message":
        top = ber.decode_exact(raw)
        if top.tag != ber.TAG_SEQUENCE or not isinstance(top.value, tuple) or len(top.value) != 4:
            raise MalformedMessageError("SNMPv3 message must be a 4-element SEQUENCE")
        version, header, security, scoped = top.value
        if int(version.value) != SNMP_VERSION_3:
            raise MalformedMessageError(f"not an SNMPv3 message (version {version.value})")
        if not isinstance(header.value, tuple) or len(header.value) != 4:
            raise MalformedMessageError("malformed msgGlobalData")
        msg_id, max_size, flags, model = header.value
        security_parameters = UsmSecurityParameters.parse(bytes(security.value))
        if not isinstance(scoped.value, tuple) or len(scoped.value) != 3:
            raise MalformedMessageError("malformed ScopedPDU")
        context_engine_id, context_name, pdu = scoped.value
        if not isinstance(pdu.value, tuple) or len(pdu.value) != 4:
            raise MalformedMessageError("malformed PDU")
        request_id, error_status, error_index, varbind_list = pdu.value
        varbinds = []
        for varbind in varbind_list.value:
            oid, value = varbind.value
            varbinds.append((tuple(oid.value), value.value))
        return cls(
            msg_id=int(msg_id.value),
            msg_max_size=int(max_size.value),
            msg_flags=bytes(flags.value)[0] if flags.value else 0,
            security_model=int(model.value),
            security_parameters=security_parameters,
            context_engine_id=bytes(context_engine_id.value),
            context_name=bytes(context_name.value),
            pdu_type=pdu.tag,
            request_id=int(request_id.value),
            error_status=int(error_status.value),
            error_index=int(error_index.value),
            varbinds=tuple(varbinds),
        )


def build_discovery_request(msg_id: int = 1) -> bytes:
    """Build the engine-discovery GET request (empty engine ID, reportable)."""
    message = SnmpV3Message(
        msg_id=msg_id,
        msg_flags=MSG_FLAG_REPORTABLE,
        security_parameters=UsmSecurityParameters(),
        pdu_type=PDU_GET_REQUEST,
        request_id=msg_id,
        varbinds=(),
    )
    return message.encode()


def build_discovery_report(
    msg_id: int,
    engine_id: EngineId | bytes,
    engine_boots: int,
    engine_time: int,
    unknown_engine_ids_counter: int = 1,
) -> bytes:
    """Build the agent's REPORT response disclosing its engine ID."""
    raw_engine_id = engine_id.encode() if isinstance(engine_id, EngineId) else engine_id
    message = SnmpV3Message(
        msg_id=msg_id,
        msg_flags=0,
        security_parameters=UsmSecurityParameters(
            engine_id=raw_engine_id,
            engine_boots=engine_boots,
            engine_time=engine_time,
        ),
        context_engine_id=raw_engine_id,
        pdu_type=PDU_REPORT,
        request_id=msg_id,
        varbinds=((USM_STATS_UNKNOWN_ENGINE_IDS, unknown_engine_ids_counter),),
    )
    return message.encode()
