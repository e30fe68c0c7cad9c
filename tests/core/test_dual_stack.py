"""Tests for dual-stack inference.

Per-protocol sets come from :meth:`ObservationIndex.dual_stack` and the
union from :class:`ResolutionEngine`, the path every report is built by.
"""

from repro.core.engine import ObservationIndex, ResolutionEngine
from repro.simnet.device import ServiceType
from repro.sources.records import Observation


def ssh_obs(address, key):
    return Observation(
        address=address,
        protocol=ServiceType.SSH,
        source="active",
        port=22,
        fields=(
            ("banner", "SSH-2.0-OpenSSH_9.3"),
            ("capability_signature", "caps"),
            ("host_key_fingerprint", key),
        ),
    )


def snmp_obs(address, engine_id):
    return Observation(
        address=address,
        protocol=ServiceType.SNMPV3,
        source="active",
        port=161,
        fields=(("engine_boots", "1"), ("engine_id", engine_id)),
    )


def dual_stack(observations, protocol=ServiceType.SSH):
    """The ``protocol`` dual-stack sets of one index pass."""
    return ObservationIndex.build(observations).dual_stack(protocol)


class TestInference:
    def test_pairs_families_sharing_identifier(self):
        observations = [ssh_obs("10.0.0.1", "key-A"), ssh_obs("2001:db8::1", "key-A")]
        collection = dual_stack(observations)
        assert len(collection) == 1
        dual = collection.sets[0]
        assert dual.ipv4_addresses == frozenset({"10.0.0.1"})
        assert dual.ipv6_addresses == frozenset({"2001:db8::1"})
        assert dual.is_one_to_one

    def test_identifier_without_both_families_is_dropped(self):
        observations = [ssh_obs("10.0.0.1", "key-A"), ssh_obs("10.0.0.2", "key-A")]
        assert len(dual_stack(observations)) == 0

    def test_protocol_filter(self):
        observations = [
            ssh_obs("10.0.0.1", "key-A"),
            ssh_obs("2001:db8::1", "key-A"),
            snmp_obs("10.0.0.2", "engine-1"),
            snmp_obs("2001:db8::2", "engine-1"),
        ]
        ssh_only = dual_stack(observations)
        assert len(ssh_only) == 1
        assert ssh_only.sets[0].protocols == frozenset({ServiceType.SSH})

    def test_one_to_one_fraction(self):
        observations = [
            ssh_obs("10.0.0.1", "key-A"),
            ssh_obs("2001:db8::1", "key-A"),
            ssh_obs("10.0.1.1", "key-B"),
            ssh_obs("10.0.1.2", "key-B"),
            ssh_obs("2001:db8::b", "key-B"),
        ]
        collection = dual_stack(observations)
        assert collection.one_to_one_fraction() == 0.5

    def test_address_accessors(self):
        observations = [ssh_obs("10.0.0.1", "key-A"), ssh_obs("2001:db8::1", "key-A")]
        collection = dual_stack(observations)
        assert collection.ipv4_addresses() == {"10.0.0.1"}
        assert collection.ipv6_addresses() == {"2001:db8::1"}

    def test_empty_collection_fractions(self):
        collection = dual_stack([])
        assert collection.one_to_one_fraction() == 0.0


class TestUnion:
    def test_union_merges_sets_sharing_addresses(self):
        union = ResolutionEngine().resolve(
            [
                ssh_obs("10.0.0.1", "k"),
                ssh_obs("2001:db8::1", "k"),
                snmp_obs("10.0.0.1", "e"),
                snmp_obs("2001:db8::9", "e"),
            ]
        ).dual_stack_union
        assert len(union) == 1
        merged = union.sets[0]
        assert merged.ipv6_addresses == frozenset({"2001:db8::1", "2001:db8::9"})
        assert merged.protocols == frozenset({ServiceType.SSH, ServiceType.SNMPV3})

    def test_union_keeps_disjoint_sets(self):
        union = ResolutionEngine().resolve(
            [
                ssh_obs("10.0.0.1", "k1"),
                ssh_obs("2001:db8::1", "k1"),
                ssh_obs("10.9.0.1", "k2"),
                ssh_obs("2001:db8::9", "k2"),
            ]
        ).dual_stack_union
        assert len(union) == 2

    def test_sets_per_asn(self):
        observations = [
            Observation(
                address="10.0.0.1", protocol=ServiceType.SSH, source="active", port=22, asn=14061,
                fields=(("banner", "b"), ("capability_signature", "c"), ("host_key_fingerprint", "k")),
            ),
            Observation(
                address="2001:db8::1", protocol=ServiceType.SSH, source="active", port=22, asn=14061,
                fields=(("banner", "b"), ("capability_signature", "c"), ("host_key_fingerprint", "k")),
            ),
        ]
        collection = dual_stack(observations)
        assert collection.sets_per_asn() == {14061: 1}
        assert collection.top_asns() == [(14061, 1)]
