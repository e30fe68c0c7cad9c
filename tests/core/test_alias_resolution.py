"""Tests for observation grouping and cross-protocol union.

Grouping runs through :class:`ObservationIndex` and the union through
:class:`ResolutionEngine`, the path every report is built by.
"""

from repro.core.alias_resolution import AliasResolver, IntUnionFind
from repro.core.engine import ObservationIndex, ResolutionEngine
from repro.net.addresses import AddressFamily
from repro.simnet.device import ServiceType
from repro.sources.records import Observation


def ssh_obs(address, key, caps="caps", asn=None):
    return Observation(
        address=address,
        protocol=ServiceType.SSH,
        source="active",
        port=22,
        asn=asn,
        fields=(
            ("banner", "SSH-2.0-OpenSSH_9.3"),
            ("capability_signature", caps),
            ("host_key_fingerprint", key),
        ),
    )


def snmp_obs(address, engine_id, asn=None):
    return Observation(
        address=address,
        protocol=ServiceType.SNMPV3,
        source="active",
        port=161,
        asn=asn,
        fields=(("engine_boots", "1"), ("engine_id", engine_id)),
    )


def group(observations, protocol=ServiceType.SSH, family=AddressFamily.IPV4):
    """The ``(protocol, family)`` alias sets of one index pass."""
    return ObservationIndex.build(observations).alias_sets(protocol, family)


class TestGrouping:
    def test_groups_by_identifier(self):
        observations = [
            ssh_obs("10.0.0.1", "key-A"),
            ssh_obs("10.0.0.2", "key-A"),
            ssh_obs("10.0.0.3", "key-B"),
        ]
        collection = group(observations)
        sizes = sorted(s.size for s in collection)
        assert sizes == [1, 2]
        two_set = next(s for s in collection if s.size == 2)
        assert two_set.addresses == frozenset({"10.0.0.1", "10.0.0.2"})

    def test_family_filter(self):
        observations = [
            ssh_obs("10.0.0.1", "key-A"),
            ssh_obs("2001:db8::1", "key-A"),
        ]
        assert group(observations).addresses() == {"10.0.0.1"}
        assert group(observations, family=AddressFamily.IPV6).addresses() == {"2001:db8::1"}

    def test_protocol_filter(self):
        observations = [ssh_obs("10.0.0.1", "key-A"), snmp_obs("10.0.0.2", "engine-1")]
        assert group(observations).addresses() == {"10.0.0.1"}

    def test_observations_without_material_ignored(self):
        empty = Observation(address="10.0.0.9", protocol=ServiceType.BGP, source="active", port=179)
        index = ObservationIndex.build([empty])
        assert index.indexed == 0
        assert len(index.alias_sets(ServiceType.BGP, AddressFamily.IPV4)) == 0

    def test_asn_mapping_collected(self):
        observations = [ssh_obs("10.0.0.1", "key-A", asn=14061), ssh_obs("10.0.0.2", "key-A", asn=14061)]
        collection = group(observations)
        assert collection.asn_of("10.0.0.1") == 14061

    def test_duplicate_observations_collapse(self):
        observations = [ssh_obs("10.0.0.1", "key-A")] * 3 + [ssh_obs("10.0.0.2", "key-A")]
        collection = group(observations)
        assert len(collection) == 1
        assert collection.sets[0].size == 2

    def test_different_protocols_never_share_identifier_namespace(self):
        # An SNMP engine ID equal to another protocol's identifier value must
        # not merge addresses across protocols: buckets are per protocol.
        observations = [snmp_obs("10.0.0.1", "SAME"), snmp_obs("10.0.0.2", "OTHER")]
        ssh_like = Observation(
            address="10.0.0.3",
            protocol=ServiceType.SNMPV3,
            source="active",
            port=161,
            fields=(("engine_boots", "1"), ("engine_id", "SAME")),
        )
        collection = group(observations + [ssh_like], protocol=ServiceType.SNMPV3)
        same_set = next(s for s in collection if "10.0.0.1" in s.addresses)
        assert same_set.addresses == frozenset({"10.0.0.1", "10.0.0.3"})


class TestUnion:
    def test_union_bridges_sets_sharing_addresses(self):
        union = ResolutionEngine().resolve(
            [
                ssh_obs("10.0.0.1", "key-A"),
                ssh_obs("10.0.0.2", "key-A"),
                snmp_obs("10.0.0.2", "engine-1"),
                snmp_obs("10.0.0.3", "engine-1"),
            ]
        ).ipv4_union
        assert len(union) == 1
        merged = union.sets[0]
        assert merged.addresses == frozenset({"10.0.0.1", "10.0.0.2", "10.0.0.3"})
        assert merged.protocols == frozenset({ServiceType.SSH, ServiceType.SNMPV3})

    def test_union_keeps_disjoint_sets_separate(self):
        union = ResolutionEngine().resolve(
            [
                ssh_obs("10.0.0.1", "key-A"),
                ssh_obs("10.0.0.2", "key-A"),
                snmp_obs("10.1.0.1", "engine-9"),
                snmp_obs("10.1.0.2", "engine-9"),
            ]
        ).ipv4_union
        assert len(union) == 2

    def test_union_preserves_asn_mapping(self):
        union = ResolutionEngine().resolve(
            [
                ssh_obs("10.0.0.1", "key-A", asn=1),
                ssh_obs("10.0.0.2", "key-A", asn=1),
                snmp_obs("10.1.0.1", "engine-9", asn=2),
                snmp_obs("10.1.0.2", "engine-9", asn=2),
            ]
        ).ipv4_union
        assert union.asn_of("10.1.0.1") == 2

    def test_union_of_empty_collections(self):
        union = AliasResolver.union([])
        assert len(union) == 0


class TestIntUnionFind:
    def test_items_start_as_singletons(self):
        union_find = IntUnionFind(1)
        assert union_find.find(0) == 0
        assert union_find.add() == 1
        assert union_find.find(1) == 1
        assert len(union_find) == 2

    def test_union_merges_components(self):
        union_find = IntUnionFind(4)
        union_find.union(0, 1)
        union_find.union(1, 2)
        assert union_find.find(0) == union_find.find(2)
        assert union_find.find(0) != union_find.find(3)

    def test_groups_partition_all_items(self):
        union_find = IntUnionFind(6)
        union_find.union(0, 1)
        union_find.union(3, 2)
        assert union_find.groups() == [[0, 1], [2, 3], [4], [5]]

    def test_long_chain_does_not_recurse(self):
        # The seed implementation used recursive path compression, which hit
        # RecursionError on parent chains longer than the interpreter limit.
        # Union-by-rank keeps chains built through the public API shallow, so
        # stress the iterative find on a hand-built worst-case chain.
        length = 5000
        union_find = IntUnionFind(length + 1)
        for index in range(length):
            union_find._parent[index] = index + 1
        assert union_find.find(0) == length
        # The chain is fully compressed afterwards.
        assert all(union_find._parent[index] == length for index in range(length))

    def test_rank_keeps_api_built_chains_shallow(self):
        length = 5000
        union_find = IntUnionFind(length + 1)
        for item in reversed(range(length)):
            union_find.union(item, item + 1)
        assert len({union_find.find(item) for item in range(length + 1)}) == 1
