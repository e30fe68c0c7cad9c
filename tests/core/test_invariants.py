"""Property-based tests of alias-resolution invariants.

These check structural properties that must hold for *any* observation set:
grouping produces a partition, the cross-protocol union never loses
addresses, dual-stack sets always contain both families, and identifier
extraction is deterministic.  Every property runs through
:class:`ObservationIndex` or :class:`ResolutionEngine`, the path every
report is built by.  The enums those paths hash hash by identity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ObservationIndex, ResolutionEngine
from repro.core.identifiers import extract_identifier
from repro.net.addresses import AddressFamily
from repro.simnet.device import ServiceType
from repro.simnet.network import ProbeOutcome
from repro.sources.records import Observation

# Strategy: observations over a small universe of addresses and identifiers,
# so collisions (aliases) actually happen.
_ipv4 = st.integers(min_value=1, max_value=40).map(lambda i: f"10.0.0.{i}")
_ipv6 = st.integers(min_value=1, max_value=40).map(lambda i: f"2001:db8::{i:x}")
_key = st.integers(min_value=1, max_value=8).map(lambda i: f"SHA256:key{i}")
_engine = st.integers(min_value=1, max_value=8).map(lambda i: f"80001f8803aabbcc0{i}")


def _ssh_observation(address, key):
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


def _snmp_observation(address, engine_id):
    return Observation(
        address=address,
        protocol=ServiceType.SNMPV3,
        source="active",
        port=161,
        fields=(("engine_boots", "1"), ("engine_id", engine_id)),
    )


# One observation per address (the data-source layer deduplicates per
# (address, protocol) before grouping, so conflicting identifiers for the
# same address never reach the resolver).
ssh_observations = st.dictionaries(st.one_of(_ipv4, _ipv6), _key, max_size=60).map(
    lambda mapping: [_ssh_observation(address, key) for address, key in mapping.items()]
)
snmp_observations = st.dictionaries(st.one_of(_ipv4, _ipv6), _engine, max_size=60).map(
    lambda mapping: [_snmp_observation(address, engine) for address, engine in mapping.items()]
)


_FAMILIES = (AddressFamily.IPV4, AddressFamily.IPV6)


@settings(max_examples=60, deadline=None)
@given(observations=ssh_observations)
def test_grouping_is_a_partition(observations):
    index = ObservationIndex.build(observations)
    seen: set[str] = set()
    for family in _FAMILIES:
        for alias_set in index.alias_sets(ServiceType.SSH, family):
            assert alias_set.size >= 1
            assert not (alias_set.addresses & seen), "address appears in two sets"
            seen |= alias_set.addresses
    # Every observed address with identifier material is covered.
    assert seen == {observation.address for observation in observations}


@settings(max_examples=60, deadline=None)
@given(ssh=ssh_observations, snmp=snmp_observations)
def test_union_preserves_addresses_and_merges_only_overlaps(ssh, snmp):
    report = ResolutionEngine().resolve(ssh + snmp)
    for collections, union in ((report.ipv4, report.ipv4_union), (report.ipv6, report.ipv6_union)):
        ssh_collection = collections[ServiceType.SSH]
        snmp_collection = collections[ServiceType.SNMPV3]
        assert union.addresses() == ssh_collection.addresses() | snmp_collection.addresses()
        # The union never has more sets than the two inputs combined.
        assert len(union) <= len(ssh_collection) + len(snmp_collection)
        # Union sets are still a partition.
        seen = set()
        for alias_set in union:
            assert not (alias_set.addresses & seen)
            seen |= alias_set.addresses


@settings(max_examples=60, deadline=None)
@given(observations=ssh_observations)
def test_dual_stack_sets_always_span_both_families(observations):
    report = ResolutionEngine().resolve(observations)
    collection = report.dual_stack[ServiceType.SSH]
    for dual in collection:
        assert dual.ipv4_addresses and dual.ipv6_addresses
    assert len(report.dual_stack_union) <= len(collection) or len(collection) == 0


@settings(max_examples=60, deadline=None)
@given(observations=ssh_observations)
def test_identifier_extraction_is_deterministic(observations):
    for observation in observations:
        assert extract_identifier(observation) == extract_identifier(observation)


@settings(max_examples=40, deadline=None)
@given(ssh=ssh_observations)
def test_non_singleton_subset_of_all_sets(ssh):
    index = ObservationIndex.build(ssh)
    for family in _FAMILIES:
        collection = index.alias_sets(ServiceType.SSH, family)
        non_singleton = collection.non_singleton()
        assert len(non_singleton) <= len(collection)
        assert non_singleton.addresses() <= collection.addresses()


@pytest.mark.parametrize("enum", [ServiceType, AddressFamily, ProbeOutcome])
def test_hot_enums_hash_by_identity(enum):
    # Their members key dicts and sets on every observation and probe;
    # Enum's own __hash__ hashes the name in Python.
    assert enum.__hash__ is object.__hash__
    assert all(hash(member) == object.__hash__(member) for member in enum)
