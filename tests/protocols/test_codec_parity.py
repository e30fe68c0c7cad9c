"""The BER, SNMPv3 and SSH codecs encode and decode exactly as the references do.

``reference_ber``, ``reference_v3``, ``reference_ssh_wire`` and
``reference_ssh_kex`` are the modules as they were before BER values
became tuples, SNMPv3 fields were read by position and SSH fields were
read in place.  Over hypothesis-generated values every encoder must
return the reference's bytes, and every decoder, over valid input and
one-to-three-byte mutations of it, must return an equal value (BER values
compared as plain ``(tag, value)`` trees, messages as field tuples) or
raise the reference's exception type.  Two differences are intended:

* The SNMPv3 parsers check each field's tag against the one RFC 3412 and
  RFC 3414 give it, and refuse any other with ``MalformedMessageError``.
  The references coerced such fields with ``int()``, ``bytes()`` and
  ``tuple()``: some loaded (an empty constructed value as an empty
  string), others raised ``ValueError``, ``TypeError``,
  ``AttributeError`` or ``OverflowError``.  Wherever the references
  raised anything but a ``ProtocolError``, the parsers raise
  ``MalformedMessageError``.
* ``iter_packets`` ends at a malformed packet as it does at a truncated
  one, keeping the payloads before it; the reference raised.
"""

import dataclasses

import pytest
import reference_ber
import reference_ssh_kex
import reference_ssh_wire
import reference_v3
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MalformedMessageError, ProtocolError
from repro.protocols.snmp import ber, v3
from repro.protocols.snmp.engine_id import EngineId
from repro.protocols.ssh import kex, wire

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
OCTETS = st.binary(max_size=40)
TAGS = st.sampled_from(
    [ber.TAG_INTEGER, ber.TAG_OCTET_STRING, ber.TAG_NULL, ber.TAG_OID, ber.TAG_SEQUENCE, 0x31, 0x41, 0x46,
     0x80, 0xA0, 0xA2, 0xA8]
)
#: Lengths on both sides of each long-form length boundary.
LONG_OCTETS = st.sampled_from([0, 1, 127, 128, 255, 256, 65535, 65536, 70000]).map(bytes)


def outcome(function, *args):
    """``("value", result)``, or ``("raises", exception type)``."""
    try:
        return "value", function(*args)
    except Exception as exc:  # any type: the type is what is compared
        return "raises", type(exc)


@st.composite
def mutations(draw, data):
    """``data`` with one to three bytes set to drawn values."""
    mutated = bytearray(data)
    edits = st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255))
    for position, value in draw(st.lists(edits, min_size=1, max_size=3)):
        mutated[position] = value
    return bytes(mutated)


def valid_or_mutated(valid):
    """A strategy of ``valid``'s values and of one-to-three-byte mutations of them."""
    return valid.flatmap(lambda data: st.one_of(st.just(data), mutations(data)))


# ---------------------------------------------------------------------- BER


def plain(value):
    """A decoded BER value of either module as a plain ``(tag, value)`` tree."""
    if value.tag & 0x20:
        return value.tag, tuple(plain(member) for member in value.value)
    return value.tag, value.value


def oids():
    first = st.integers(0, 2)
    return st.tuples(first, st.integers(0, 39), st.lists(st.integers(0, 2**32), max_size=8)).map(
        lambda parts: (parts[0], parts[1], *parts[2])
    )


def tlvs():
    """Encoded BER values: primitive leaves and constructed values nesting them."""
    leaves = st.one_of(
        st.builds(reference_ber.encode_integer, INT64),
        st.builds(reference_ber.encode_integer, st.integers(0, 2**64), st.sampled_from([0x41, 0x42, 0x43, 0x46])),
        st.builds(reference_ber.encode_octet_string, OCTETS, TAGS),
        st.just(reference_ber.encode_null()),
        st.builds(reference_ber.encode_oid, oids()),
    )
    return st.recursive(
        leaves,
        lambda members: st.builds(
            lambda parts, tag: reference_ber.encode_sequence(*parts, tag=tag),
            st.lists(members, max_size=4),
            st.sampled_from([ber.TAG_SEQUENCE, 0x31, 0xA0, 0xA8]),
        ),
        max_leaves=12,
    )


class TestBerEncoders:
    @given(INT64, st.sampled_from([ber.TAG_INTEGER, 0x41, 0x43]))
    def test_integers(self, value, tag):
        assert ber.encode_integer(value, tag) == reference_ber.encode_integer(value, tag)

    @given(st.integers(min_value=-(2**200), max_value=2**200))
    def test_wide_integers(self, value):
        assert ber.encode_integer(value) == reference_ber.encode_integer(value)

    @given(st.one_of(OCTETS, LONG_OCTETS), TAGS)
    def test_octet_strings_and_long_form_lengths(self, value, tag):
        assert ber.encode_octet_string(value, tag) == reference_ber.encode_octet_string(value, tag)
        assert ber.encode_tlv(tag, value) == reference_ber.encode_tlv(tag, value)

    @given(oids())
    def test_oids(self, components):
        assert ber.encode_oid(components) == reference_ber.encode_oid(components)

    @given(st.lists(st.integers(-5, 50), max_size=4).map(tuple))
    def test_invalid_oids_raise_alike(self, components):
        assert outcome(ber.encode_oid, components) == outcome(reference_ber.encode_oid, components)

    @given(st.lists(st.one_of(tlvs(), LONG_OCTETS), max_size=4), st.sampled_from([ber.TAG_SEQUENCE, 0xA8]))
    def test_sequences(self, members, tag):
        assert ber.encode_sequence(*members, tag=tag) == reference_ber.encode_sequence(*members, tag=tag)

    def test_null(self):
        assert ber.encode_null() == reference_ber.encode_null()


class TestBerDecoders:
    @settings(max_examples=300)
    @given(valid_or_mutated(tlvs()), st.binary(max_size=3))
    def test_decode(self, data, trailing):
        expected = outcome(reference_ber.decode, data + trailing)
        actual = outcome(ber.decode, data + trailing)
        if expected[0] == "raises":
            assert actual == expected
        else:
            assert actual[0] == "value"
            (value, rest), (reference_value, reference_rest) = actual[1], expected[1]
            assert (plain(value), rest) == (plain(reference_value), reference_rest)

    @settings(max_examples=300)
    @given(valid_or_mutated(tlvs()))
    def test_decode_exact(self, data):
        expected = outcome(reference_ber.decode_exact, data)
        actual = outcome(ber.decode_exact, data)
        if expected[0] == "raises":
            assert actual == expected
        else:
            assert actual[0] == "value" and plain(actual[1]) == plain(expected[1])
            assert actual[1].is_constructed == expected[1].is_constructed


# ------------------------------------------------------------------- SNMPv3

_VARBIND_VALUES = st.one_of(st.none(), st.integers(0, 2**32), OCTETS)


@st.composite
def usm_fields(draw):
    return {
        "engine_id": draw(st.binary(max_size=32)),
        "engine_boots": draw(INT64),
        "engine_time": draw(INT64),
        "user_name": draw(st.binary(max_size=32)),
        "authentication_parameters": draw(st.binary(max_size=12)),
        "privacy_parameters": draw(st.binary(max_size=12)),
    }


@st.composite
def message_fields(draw):
    return {
        "msg_id": draw(INT64),
        "msg_max_size": draw(INT64),
        "msg_flags": draw(st.integers(0, 255)),
        "security_model": draw(INT64),
        "usm": draw(usm_fields()),
        "context_engine_id": draw(OCTETS),
        "context_name": draw(OCTETS),
        "pdu_type": draw(st.sampled_from([v3.PDU_GET_REQUEST, v3.PDU_RESPONSE, v3.PDU_REPORT, 0xBF])),
        "request_id": draw(INT64),
        "error_status": draw(st.integers(0, 18)),
        "error_index": draw(st.integers(0, 10)),
        "varbinds": tuple(draw(st.lists(st.tuples(oids(), _VARBIND_VALUES), max_size=3))),
    }


def build(module, fields):
    """The message ``fields`` describe, built with ``module``'s classes."""
    fields = dict(fields)
    usm = module.UsmSecurityParameters(**fields.pop("usm"))
    return module.SnmpV3Message(security_parameters=usm, **fields)


def discovery_messages():
    """A discovery request, a discovery report, or any message, encoded."""
    engine_ids = st.one_of(
        st.binary(min_size=5, max_size=32), st.builds(EngineId.generate, st.text(max_size=8))
    )
    return st.one_of(
        st.builds(reference_v3.build_discovery_request, st.integers(0, 2**31 - 1)),
        st.builds(
            reference_v3.build_discovery_report,
            st.integers(0, 2**31 - 1),
            engine_ids,
            st.integers(0, 2**31 - 1),
            st.integers(0, 2**31 - 1),
            st.integers(0, 2**32 - 1),
        ),
        message_fields().map(lambda fields: build(reference_v3, fields).encode()),
    )


_HEADER_TAGS = (ber.TAG_INTEGER, ber.TAG_INTEGER, ber.TAG_OCTET_STRING, ber.TAG_INTEGER)
_PDU_TAGS = (ber.TAG_INTEGER, ber.TAG_INTEGER, ber.TAG_INTEGER, ber.TAG_SEQUENCE)
_USM_TAGS = (ber.TAG_OCTET_STRING, ber.TAG_INTEGER, ber.TAG_INTEGER) + (ber.TAG_OCTET_STRING,) * 3


def _tags(values):
    return tuple(value.tag for value in values)


def usm_has_wrong_tag(raw):
    """Whether a USM field holds another tag than RFC 3414 gives it, read
    before anything else fails the parse."""
    try:
        sequence = reference_ber.decode_exact(raw)
    except ProtocolError:
        return False
    if sequence.tag != ber.TAG_SEQUENCE or len(sequence.value) != 6:
        return False
    return _tags(sequence.value) != _USM_TAGS


def message_has_wrong_tag(raw):
    """Whether a field holds another tag than RFC 3412 gives it, read
    before anything else fails the parse (the parse's own reading order)."""
    try:
        top = reference_ber.decode_exact(raw)
    except ProtocolError:
        return False
    if top.tag != ber.TAG_SEQUENCE or len(top.value) != 4:
        return False
    version, header, security, scoped = top.value
    if version.tag != ber.TAG_INTEGER:
        return True
    if version.value != v3.SNMP_VERSION_3:
        return False
    if header.tag != ber.TAG_SEQUENCE:
        return True
    if len(header.value) != 4:
        return False
    if _tags(header.value) != _HEADER_TAGS or security.tag != ber.TAG_OCTET_STRING:
        return True
    if usm_has_wrong_tag(security.value):
        return True
    try:
        reference_v3.UsmSecurityParameters.parse(security.value)
    except ProtocolError:
        return False
    if scoped.tag != ber.TAG_SEQUENCE:
        return True
    if len(scoped.value) != 3:
        return False
    context_engine_id, context_name, pdu = scoped.value
    if (context_engine_id.tag, context_name.tag) != (ber.TAG_OCTET_STRING,) * 2:
        return True
    if pdu.tag & 0xE0 != ber.CONTEXT_CONSTRUCTED_BASE:
        return True
    if len(pdu.value) != 4:
        return False
    if _tags(pdu.value) != _PDU_TAGS:
        return True
    for varbind in pdu.value[3].value:
        if varbind.tag != ber.TAG_SEQUENCE:
            return True
        if len(varbind.value) != 2:
            return False
        if varbind.value[0].tag != ber.TAG_OID:
            return True
    return False


def assert_parses_alike(parse, reference_parse, raw, wrong_tag):
    expected = outcome(reference_parse, raw)
    actual = outcome(parse, raw)
    if actual[0] == "value":
        assert expected[0] == "value"
        assert dataclasses.astuple(actual[1]) == dataclasses.astuple(expected[1])
        assert not wrong_tag
    elif wrong_tag or not issubclass(expected[1], ProtocolError):
        assert actual == ("raises", MalformedMessageError)
    else:
        assert actual == expected


class TestSnmpV3:
    @given(message_fields())
    def test_message_encode(self, fields):
        assert build(v3, fields).encode() == build(reference_v3, fields).encode()

    @given(usm_fields())
    def test_usm_encode(self, fields):
        assert v3.UsmSecurityParameters(**fields).encode() == reference_v3.UsmSecurityParameters(**fields).encode()

    @given(st.integers(0, 2**31 - 1))
    def test_discovery_request(self, msg_id):
        assert v3.build_discovery_request(msg_id) == reference_v3.build_discovery_request(msg_id)

    @given(
        st.integers(0, 2**31 - 1),
        st.one_of(st.binary(min_size=5, max_size=32), st.builds(EngineId.generate, st.text(max_size=8))),
        st.integers(0, 2**31 - 1),
        st.integers(0, 2**31 - 1),
    )
    def test_discovery_report(self, msg_id, engine_id, boots, time_):
        assert v3.build_discovery_report(msg_id, engine_id, boots, time_) == reference_v3.build_discovery_report(
            msg_id, engine_id, boots, time_
        )

    @settings(max_examples=500)
    @given(valid_or_mutated(discovery_messages()))
    def test_message_parse(self, raw):
        assert_parses_alike(
            v3.SnmpV3Message.parse, reference_v3.SnmpV3Message.parse, raw, message_has_wrong_tag(raw)
        )

    @settings(max_examples=300)
    @given(valid_or_mutated(usm_fields().map(lambda fields: reference_v3.UsmSecurityParameters(**fields).encode())))
    def test_usm_parse(self, raw):
        assert_parses_alike(
            v3.UsmSecurityParameters.parse, reference_v3.UsmSecurityParameters.parse, raw, usm_has_wrong_tag(raw)
        )

    @pytest.mark.parametrize(
        "raw",
        [
            # msgVersion as an OCTET STRING: a ValueError from int() at the reference.
            v3.build_discovery_request(1)[:2] + b"\x04" + v3.build_discovery_request(1)[3:],
            # An empty user name as an empty SET: the reference read it as b"".
            v3.build_discovery_request(1).replace(b"\x04\x00\x04\x00\x04\x00", b"\x31\x00\x04\x00\x04\x00", 1),
        ],
        ids=["version-octet-string", "user-name-set"],
    )
    def test_a_field_of_another_tag_is_malformed(self, raw):
        assert message_has_wrong_tag(raw)
        with pytest.raises(MalformedMessageError):
            v3.SnmpV3Message.parse(raw)


# ---------------------------------------------------------------------- SSH

NAMES = st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-@.", min_size=1, max_size=24), max_size=6)

#: One writer call: the method name and a strategy of its argument.
WRITES = st.one_of(
    st.tuples(st.just("write_byte"), st.integers(0, 255)),
    st.tuples(st.just("write_boolean"), st.booleans()),
    st.tuples(st.just("write_uint32"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("write_bytes"), OCTETS),
    st.tuples(st.just("write_string"), st.one_of(OCTETS, LONG_OCTETS)),
    st.tuples(st.just("write_name_list"), NAMES),
    st.tuples(st.just("write_mpint"), st.integers(0, 2**600)),
)
READS = st.sampled_from(
    ["read_byte", "read_boolean", "read_uint32", "read_string", "read_name_list", "read_mpint", "read_bytes"]
)


def write(writer, calls):
    for method, argument in calls:
        getattr(writer, method)(argument)
    return writer.getvalue()


def kexinits():
    return st.builds(
        reference_ssh_kex.KexInit,
        cookie=st.binary(min_size=16, max_size=16),
        kex_algorithms=NAMES.map(tuple),
        server_host_key_algorithms=NAMES.map(tuple),
        encryption_algorithms_client_to_server=NAMES.map(tuple),
        mac_algorithms_server_to_client=NAMES.map(tuple),
        languages_client_to_server=NAMES.map(tuple),
        first_kex_packet_follows=st.booleans(),
    )


def current_kexinit(reference):
    return kex.KexInit(**{field.name: getattr(reference, field.name) for field in dataclasses.fields(reference)})


class TestSshWire:
    @given(st.lists(WRITES, max_size=8))
    def test_writer(self, calls):
        assert write(wire.SshWriter(), calls) == write(reference_ssh_wire.SshWriter(), calls)

    @given(st.lists(WRITES, max_size=6).flatmap(
        lambda calls: valid_or_mutated(st.just(write(reference_ssh_wire.SshWriter(), calls) + b"\x00"))
    ), st.lists(READS, min_size=1, max_size=8), st.integers(0, 20))
    def test_reader(self, data, reads, count):
        reader, reference = wire.SshReader(data), reference_ssh_wire.SshReader(data)
        for method in reads:
            args = (count,) if method == "read_bytes" else ()
            expected = outcome(getattr(reference, method), *args)
            assert outcome(getattr(reader, method), *args) == expected
            if expected[0] == "raises":
                break

    @given(st.one_of(OCTETS, LONG_OCTETS), st.integers(0, 255))
    def test_frame_packet(self, payload, padding_byte):
        assert wire.frame_packet(payload, padding_byte) == reference_ssh_wire.frame_packet(payload, padding_byte)

    @settings(max_examples=300)
    @given(valid_or_mutated(st.lists(OCTETS, min_size=1, max_size=3).map(
        lambda payloads: b"".join(map(reference_ssh_wire.frame_packet, payloads))
    )))
    def test_unframe_and_iterate(self, data):
        assert outcome(wire.unframe_packet, data) == outcome(reference_ssh_wire.unframe_packet, data)
        reference_payloads = []
        try:
            for payload in reference_ssh_wire.iter_packets(data):
                reference_payloads.append(payload)
        except MalformedMessageError:
            pass  # the change ends here, keeping the payloads before
        assert list(wire.iter_packets(data)) == reference_payloads


class TestKexInit:
    @given(kexinits())
    def test_build_and_signature(self, reference):
        current = current_kexinit(reference)
        assert current.build() == reference.build()
        assert current.capability_signature() == reference.capability_signature()

    @settings(max_examples=300)
    @given(valid_or_mutated(kexinits().map(lambda reference: reference.build())))
    def test_parse(self, payload):
        expected = outcome(reference_ssh_kex.KexInit.parse, payload)
        actual = outcome(kex.KexInit.parse, payload)
        if expected[0] == "raises":
            assert actual == expected
        else:
            assert actual[0] == "value"
            assert dataclasses.astuple(actual[1]) == dataclasses.astuple(expected[1])
