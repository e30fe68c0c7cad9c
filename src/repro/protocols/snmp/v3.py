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

from repro.errors import MalformedMessageError
from repro.protocols.snmp import ber
from repro.protocols.snmp.engine_id import EngineId

SNMP_VERSION_3 = 3
USM_SECURITY_MODEL = 3

MSG_FLAG_REPORTABLE = 0x04

PDU_GET_REQUEST = ber.CONTEXT_CONSTRUCTED_BASE | 0  # 0xA0
PDU_RESPONSE = ber.CONTEXT_CONSTRUCTED_BASE | 2     # 0xA2
PDU_REPORT = ber.CONTEXT_CONSTRUCTED_BASE | 8       # 0xA8

#: OID of usmStatsUnknownEngineIDs.0 — the counter reported during discovery.
USM_STATS_UNKNOWN_ENGINE_IDS = (1, 3, 6, 1, 6, 3, 15, 1, 1, 4, 0)

# The tags RFC 3412 and RFC 3414 give the fields of msgGlobalData, of the
# PDU and of the USM parameters, in order.
_HEADER_TAGS = (ber.TAG_INTEGER, ber.TAG_INTEGER, ber.TAG_OCTET_STRING, ber.TAG_INTEGER)
_PDU_TAGS = (ber.TAG_INTEGER, ber.TAG_INTEGER, ber.TAG_INTEGER, ber.TAG_SEQUENCE)
_USM_TAGS = (
    ber.TAG_OCTET_STRING,
    ber.TAG_INTEGER,
    ber.TAG_INTEGER,
    ber.TAG_OCTET_STRING,
    ber.TAG_OCTET_STRING,
    ber.TAG_OCTET_STRING,
)


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
        sequence = ber.decode_exact(raw)
        if sequence.tag != ber.TAG_SEQUENCE or len(sequence.value) != 6:
            raise MalformedMessageError("USM parameters must be a 6-element SEQUENCE")
        engine_id, boots, time_, user, auth, privacy = sequence.value
        if (engine_id.tag, boots.tag, time_.tag, user.tag, auth.tag, privacy.tag) != _USM_TAGS:
            raise MalformedMessageError("USM parameters hold a field of the wrong type")
        return cls(engine_id.value, boots.value, time_.value, user.value, auth.value, privacy.value)


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
            # A counter is unsigned: a negative value would be written in
            # two's complement and read back as another number.
            if value < 0:
                raise MalformedMessageError(f"Counter32 varbind value {value} is negative")
            return ber.encode_integer(value, tag=0x41)
        return ber.encode_octet_string(value)

    @classmethod
    def parse(cls, raw: bytes) -> "SnmpV3Message":
        """Parse a message, reading each field at its position.

        Each field's tag is checked against the one RFC 3412 gives it
        (the PDU's is any context-specific constructed tag, its type);
        a field of another tag, like any other malformed input, raises
        :class:`~repro.errors.MalformedMessageError`.
        """
        top = ber.decode_exact(raw)
        if top.tag != ber.TAG_SEQUENCE or len(top.value) != 4:
            raise MalformedMessageError("SNMPv3 message must be a 4-element SEQUENCE")
        version, header, security, scoped = top.value
        if version.tag != ber.TAG_INTEGER or version.value != SNMP_VERSION_3:
            raise MalformedMessageError(f"not an SNMPv3 message (version {version.value!r})")
        if header.tag != ber.TAG_SEQUENCE or len(header.value) != 4:
            raise MalformedMessageError("malformed msgGlobalData")
        msg_id, max_size, flags, model = header.value
        if (msg_id.tag, max_size.tag, flags.tag, model.tag) != _HEADER_TAGS:
            raise MalformedMessageError("malformed msgGlobalData")
        if security.tag != ber.TAG_OCTET_STRING:
            raise MalformedMessageError("msgSecurityParameters is not an OCTET STRING")
        security_parameters = UsmSecurityParameters.parse(security.value)
        if scoped.tag != ber.TAG_SEQUENCE or len(scoped.value) != 3:
            raise MalformedMessageError("malformed ScopedPDU")
        context_engine_id, context_name, pdu = scoped.value
        if context_engine_id.tag != ber.TAG_OCTET_STRING or context_name.tag != ber.TAG_OCTET_STRING:
            raise MalformedMessageError("malformed ScopedPDU")
        if pdu.tag & 0xE0 != ber.CONTEXT_CONSTRUCTED_BASE or len(pdu.value) != 4:
            raise MalformedMessageError("malformed PDU")
        request_id, error_status, error_index, varbind_list = pdu.value
        if (request_id.tag, error_status.tag, error_index.tag, varbind_list.tag) != _PDU_TAGS:
            raise MalformedMessageError("malformed PDU")
        varbinds = []
        for varbind in varbind_list.value:
            if varbind.tag != ber.TAG_SEQUENCE or len(varbind.value) != 2:
                raise MalformedMessageError("malformed VarBind")
            name, value = varbind.value
            if name.tag != ber.TAG_OID:
                raise MalformedMessageError("malformed VarBind")
            varbinds.append((name.value, value.value))
        return cls(
            msg_id=msg_id.value,
            msg_max_size=max_size.value,
            msg_flags=flags.value[0] if flags.value else 0,
            security_model=model.value,
            security_parameters=security_parameters,
            context_engine_id=context_engine_id.value,
            context_name=context_name.value,
            pdu_type=pdu.tag,
            request_id=request_id.value,
            error_status=error_status.value,
            error_index=error_index.value,
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
