"""Tests for alias-set data structures."""

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.simnet.device import ServiceType


def make_set(identifier, addresses, protocols=(ServiceType.SSH,)):
    return AliasSet(identifier=identifier, addresses=frozenset(addresses), protocols=frozenset(protocols))


class TestAliasSet:
    def test_size_and_singleton(self):
        assert make_set("a", ["10.0.0.1"]).is_singleton
        assert make_set("b", ["10.0.0.1", "10.0.0.2"]).size == 2

    def test_family_split_and_dual_stack(self):
        mixed = make_set("c", ["10.0.0.1", "2001:db8::1"])
        assert mixed.ipv4_addresses() == frozenset({"10.0.0.1"})
        assert mixed.ipv6_addresses() == frozenset({"2001:db8::1"})
        assert mixed.is_dual_stack
        assert not make_set("d", ["10.0.0.1", "10.0.0.2"]).is_dual_stack

    def test_restricted_to(self):
        alias_set = make_set("e", ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
        assert alias_set.restricted_to({"10.0.0.2", "10.0.0.9"}) == frozenset({"10.0.0.2"})


class TestAliasSetCollection:
    def build(self):
        return AliasSetCollection(
            "test",
            [
                make_set("id1", ["10.0.0.1", "10.0.0.2"]),
                make_set("id2", ["10.1.0.1"]),
                make_set("id3", ["10.2.0.1", "10.2.0.2", "10.3.0.1"]),
            ],
            address_asn={
                "10.0.0.1": 100,
                "10.0.0.2": 100,
                "10.1.0.1": 200,
                "10.2.0.1": 300,
                "10.2.0.2": 300,
                "10.3.0.1": 400,
            },
        )

    def test_len_and_iteration(self):
        collection = self.build()
        assert len(collection) == 3
        assert len(collection.sets) == 3

    def test_non_singleton(self):
        collection = self.build().non_singleton()
        assert len(collection) == 2
        assert all(not alias_set.is_singleton for alias_set in collection)

    def test_addresses_and_sizes(self):
        collection = self.build()
        assert len(collection.addresses()) == 6
        assert sorted(collection.sizes()) == [1, 2, 3]

    def test_asns_per_set(self):
        collection = self.build()
        assert sorted(collection.asns_per_set()) == [1, 1, 2]

    def test_sets_per_asn_counts_sets_not_addresses(self):
        counter = self.build().sets_per_asn()
        assert counter[100] == 1
        assert counter[300] == 1
        assert counter[400] == 1

    def test_top_asns(self):
        collection = self.build()
        top = collection.top_asns(2)
        assert len(top) == 2
        assert all(isinstance(asn, int) and count >= 1 for asn, count in top)

    def test_filter(self):
        collection = self.build().filter(lambda s: s.size >= 3)
        assert len(collection) == 1

    def test_asn_of(self):
        collection = self.build()
        assert collection.asn_of("10.0.0.1") == 100
        assert collection.asn_of("10.254.0.1") is None
