"""Tests for ObservationIndex removal, reference counts, and dirty tracking."""

import pytest

from repro.core.dictcore import DictObservationIndex
from repro.core.engine import ObservationIndex
from repro.errors import DatasetError
from repro.net.addresses import AddressFamily
from repro.simnet.device import ServiceType
from repro.sources.records import Observation


def snmp_observation(address, engine_id="engine-a", asn=None, timestamp=0.0):
    return Observation(
        address=address,
        protocol=ServiceType.SNMPV3,
        source="test",
        port=161,
        timestamp=timestamp,
        asn=asn,
        fields=(("engine_boots", "1"), ("engine_id", engine_id)),
    )


def bare_observation(address):
    """An observation without identifier material."""
    return Observation(
        address=address, protocol=ServiceType.BGP, source="test", port=179
    )


class TestRemoval:
    def test_remove_is_inverse_of_add(self):
        index = ObservationIndex()
        observation = snmp_observation("10.0.0.1")
        index.add(observation)
        assert index.remove(observation) is True
        assert index.observed == 0
        assert index.indexed == 0
        assert len(index.alias_sets(ServiceType.SNMPV3, AddressFamily.IPV4)) == 0

    def test_reference_counts_keep_address_until_last_copy(self):
        index = ObservationIndex()
        observation = snmp_observation("10.0.0.1")
        index.add(observation)
        index.add(observation)
        index.remove(observation)
        collection = index.alias_sets(ServiceType.SNMPV3, AddressFamily.IPV4)
        assert collection.sets[0].addresses == frozenset({"10.0.0.1"})
        index.remove(observation)
        assert len(index.alias_sets(ServiceType.SNMPV3, AddressFamily.IPV4)) == 0

    def test_address_can_leave_an_identifier_bucket(self):
        index = ObservationIndex()
        index.add(snmp_observation("10.0.0.1"))
        index.add(snmp_observation("10.0.0.2"))
        index.remove(snmp_observation("10.0.0.2"))
        collection = index.alias_sets(ServiceType.SNMPV3, AddressFamily.IPV4)
        assert collection.sets[0].addresses == frozenset({"10.0.0.1"})

    def test_remove_unknown_observation_raises(self):
        index = ObservationIndex()
        index.add(snmp_observation("10.0.0.1"))
        with pytest.raises(DatasetError):
            index.remove(snmp_observation("10.0.0.2"))

    def test_remove_identifierless_observation_returns_false(self):
        index = ObservationIndex()
        observation = bare_observation("10.0.0.1")
        assert index.add(observation) is False
        assert index.remove(observation) is False
        assert index.observed == 0

    def test_asn_mapping_dropped_with_last_asn_carrying_observation(self):
        index = ObservationIndex()
        with_asn = snmp_observation("10.0.0.1", asn=65001)
        without_asn = snmp_observation("10.0.0.1")
        index.add(with_asn)
        index.add(without_asn)
        index.remove(with_asn)
        collection = index.alias_sets(ServiceType.SNMPV3, AddressFamily.IPV4)
        # The surviving observation carried no ASN, so the mapping is gone
        # (exactly as a from-scratch build of the survivor would have it).
        assert collection.address_asn == {}
        assert collection.sets[0].addresses == frozenset({"10.0.0.1"})


class TestStateSignature:
    def test_incremental_equals_from_scratch(self):
        stream = [
            snmp_observation("10.0.0.1", asn=65001),
            snmp_observation("10.0.0.2", asn=65001),
            snmp_observation("10.0.0.3", engine_id="engine-b", asn=65002),
            bare_observation("10.0.0.4"),
        ]
        incremental = ObservationIndex.build(stream)
        incremental.add(snmp_observation("10.0.0.9", engine_id="engine-c"))
        incremental.remove(snmp_observation("10.0.0.9", engine_id="engine-c"))
        incremental.remove(stream[1])
        survivors = [stream[0], stream[2], stream[3]]
        assert (
            incremental.state_signature()
            == ObservationIndex.build(survivors).state_signature()
        )

    def test_signature_ignores_insertion_order(self):
        forward = ObservationIndex.build(
            [snmp_observation("10.0.0.1"), snmp_observation("10.0.0.2")]
        )
        backward = ObservationIndex.build(
            [snmp_observation("10.0.0.2"), snmp_observation("10.0.0.1")]
        )
        assert forward.state_signature() == backward.state_signature()


@pytest.mark.parametrize("core", [ObservationIndex, DictObservationIndex])
class TestAsnRange:
    """Both cores refuse an ASN that is not a 32-bit AS number, changing nothing."""

    @pytest.mark.parametrize("asn", [2**63, 2**32, -1, 1.5, True])
    def test_asn_that_is_no_as_number_is_refused_before_any_change(self, core, asn):
        index = core()
        index.add(snmp_observation("10.0.0.2", asn=65001))
        before = index.state_signature()
        forged = Observation(
            "10.0.0.1", ServiceType.SNMPV3, "x", 161, 0.0, asn, (("engine_id", "abc"),)
        )
        with pytest.raises(DatasetError, match=f"asn {asn} is not a 32-bit AS number"):
            index.add(forged)
        assert index.state_signature() == before
        with pytest.raises(DatasetError, match=f"asn {asn} is not a 32-bit AS number"):
            index.remove(forged)
        assert index.state_signature() == before

    @pytest.mark.parametrize("asn", [0, 2**32 - 1])
    def test_asn_range_bounds_are_indexed(self, core, asn):
        index = core()
        observation = snmp_observation("10.0.0.1", asn=asn)
        assert index.add(observation) is True
        assert index.alias_sets(ServiceType.SNMPV3, AddressFamily.IPV4).address_asn == {
            "10.0.0.1": asn
        }
        assert index.remove(observation) is True
