"""Golden parity: the single-pass engine reproduces the seed pipeline.

The seed implementation walked the observation list nine times (six
per-(protocol, family) groupings plus three dual-stack passes).  The
``_seed_*`` functions below are a verbatim copy of that implementation
(commit a5c4af9); the test asserts that the :class:`ResolutionEngine`
produces a field-by-field identical :class:`AliasReport` for the paper's
session at scale 1.0, seed 42, on all three sources.  It also pins how
often each path calls the identifier extractor: the engine once per
observation, the seed's nine passes twice.

The only intended difference is the *labelling* of the synthetic union
sets: the seed enumerated components in union-find-root order (an
implementation detail), the engine orders them canonically by smallest
member address and labels each ``union:<smallest-address>``.  The
comparison therefore canonicalises the seed's union collections the same
way before asserting exact equality.
"""

import dataclasses
from collections import defaultdict

import pytest

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet
from repro.core.engine import PROTOCOLS, ObservationIndex, ResolutionEngine
from repro.core.identifiers import DEFAULT_OPTIONS, count_extractions, extract_identifier
from repro.net.addresses import AddressFamily

# --------------------------------------------------------------------- #
# Verbatim seed implementation (nine passes over the observation list)
# --------------------------------------------------------------------- #


class _SeedUnionFind:
    def __init__(self):
        self._parent = {}

    def find(self, item):
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, left, right):
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            self._parent[right_root] = left_root


def _seed_group(observations, protocol=None, family=None, name=None, options=DEFAULT_OPTIONS):
    by_identifier = defaultdict(set)
    protocols_by_identifier = defaultdict(set)
    address_asn = {}
    for observation in observations:
        if protocol is not None and observation.protocol is not protocol:
            continue
        if family is not None and observation.family is not family:
            continue
        identifier = extract_identifier(observation, options)
        if identifier is None:
            continue
        key = (identifier.protocol, identifier.value)
        by_identifier[key].add(observation.address)
        protocols_by_identifier[key].add(observation.protocol)
        if observation.asn is not None:
            address_asn[observation.address] = observation.asn
    collection_name = name or (protocol.value if protocol is not None else "all-protocols")
    collection = AliasSetCollection(collection_name, address_asn=address_asn)
    for key, addresses in by_identifier.items():
        _, value = key
        collection.add(
            AliasSet(
                identifier=value,
                addresses=frozenset(addresses),
                protocols=frozenset(protocols_by_identifier[key]),
            )
        )
    return collection


def _seed_union(collections, name="union"):
    union_find = _SeedUnionFind()
    contributing = []
    address_asn = {}
    for collection in collections:
        address_asn.update(collection.address_asn)
        for alias_set in collection:
            contributing.append(alias_set)
            addresses = sorted(alias_set.addresses)
            for address in addresses[1:]:
                union_find.union(addresses[0], address)
    members = defaultdict(set)
    protocols = defaultdict(set)
    for alias_set in contributing:
        if not alias_set.addresses:
            continue
        root = union_find.find(sorted(alias_set.addresses)[0])
        members[root] |= alias_set.addresses
        protocols[root] |= alias_set.protocols
    result = AliasSetCollection(name, address_asn=address_asn)
    for index, root in enumerate(sorted(members)):
        result.add(
            AliasSet(
                identifier=f"union:{index}",
                addresses=frozenset(members[root]),
                protocols=frozenset(protocols[root]),
            )
        )
    return result


def _seed_dual_stack(observations, protocol=None, options=DEFAULT_OPTIONS, name=None):
    ipv4_members = defaultdict(set)
    ipv6_members = defaultdict(set)
    protocols_by_key = defaultdict(set)
    address_asn = {}
    for observation in observations:
        if protocol is not None and observation.protocol is not protocol:
            continue
        identifier = extract_identifier(observation, options)
        if identifier is None:
            continue
        key = (identifier.protocol, identifier.value)
        if observation.family is AddressFamily.IPV4:
            ipv4_members[key].add(observation.address)
        else:
            ipv6_members[key].add(observation.address)
        protocols_by_key[key].add(observation.protocol)
        if observation.asn is not None:
            address_asn[observation.address] = observation.asn
    collection = DualStackCollection(
        name or (protocol.value if protocol else "all-protocols"), address_asn=address_asn
    )
    for key in ipv4_members:
        if key not in ipv6_members:
            continue
        _, value = key
        collection.add(
            DualStackSet(
                identifier=value,
                ipv4_addresses=frozenset(ipv4_members[key]),
                ipv6_addresses=frozenset(ipv6_members[key]),
                protocols=frozenset(protocols_by_key[key]),
            )
        )
    return collection


def _seed_union_dual_stack(collections, name="union"):
    parent = {}

    def find(address):
        root = parent.setdefault(address, address)
        if root == address:
            return address
        resolved = find(root)
        parent[address] = resolved
        return resolved

    def union(left, right):
        left_root, right_root = find(left), find(right)
        if left_root != right_root:
            parent[right_root] = left_root

    contributing = []
    address_asn = {}
    for collection in collections:
        address_asn.update(collection.address_asn)
        for dual_set in collection:
            contributing.append(dual_set)
            addresses = sorted(dual_set.ipv4_addresses | dual_set.ipv6_addresses)
            for address in addresses[1:]:
                union(addresses[0], address)
    ipv4_members = defaultdict(set)
    ipv6_members = defaultdict(set)
    protocols_by_root = defaultdict(set)
    for dual_set in contributing:
        addresses = sorted(dual_set.ipv4_addresses | dual_set.ipv6_addresses)
        root = find(addresses[0])
        ipv4_members[root] |= dual_set.ipv4_addresses
        ipv6_members[root] |= dual_set.ipv6_addresses
        protocols_by_root[root] |= dual_set.protocols
    result = DualStackCollection(name, address_asn=address_asn)
    for index, root in enumerate(sorted(ipv4_members)):
        result.add(
            DualStackSet(
                identifier=f"union:{index}",
                ipv4_addresses=frozenset(ipv4_members[root]),
                ipv6_addresses=frozenset(ipv6_members[root]),
                protocols=frozenset(protocols_by_root[root]),
            )
        )
    return result


def _seed_run_alias_resolution(observations, name="dataset"):
    observation_list = list(observations)
    ipv4 = {}
    ipv6 = {}
    dual = {}
    for protocol in PROTOCOLS:
        ipv4[protocol] = _seed_group(
            observation_list, protocol=protocol, family=AddressFamily.IPV4, name=f"{name}:{protocol.value}:ipv4"
        )
        ipv6[protocol] = _seed_group(
            observation_list, protocol=protocol, family=AddressFamily.IPV6, name=f"{name}:{protocol.value}:ipv6"
        )
        dual[protocol] = _seed_dual_stack(
            observation_list, protocol=protocol, name=f"{name}:{protocol.value}:dual"
        )
    return {
        "ipv4": ipv4,
        "ipv6": ipv6,
        "ipv4_union": _seed_union(ipv4.values(), name=f"{name}:union:ipv4"),
        "ipv6_union": _seed_union(ipv6.values(), name=f"{name}:union:ipv6"),
        "dual_stack": dual,
        "dual_stack_union": _seed_union_dual_stack(dual.values(), name=f"{name}:union:dual"),
    }


# --------------------------------------------------------------------- #
# Comparison helpers
# --------------------------------------------------------------------- #


def _canonical_alias_union(collection):
    """Relabel a seed union collection with canonical min-address labels."""
    ordered = sorted(collection, key=lambda alias_set: min(alias_set.addresses))
    return [
        dataclasses.replace(alias_set, identifier=f"union:{min(alias_set.addresses)}")
        for alias_set in ordered
    ]


def _canonical_dual_union(collection):
    ordered = sorted(
        collection, key=lambda dual: min(dual.ipv4_addresses | dual.ipv6_addresses)
    )
    return [
        dataclasses.replace(
            dual, identifier=f"union:{min(dual.ipv4_addresses | dual.ipv6_addresses)}"
        )
        for dual in ordered
    ]


def _assert_collections_equal(engine_collection, seed_collection):
    assert engine_collection.name == seed_collection.name
    assert list(engine_collection) == list(seed_collection)
    assert engine_collection.address_asn == seed_collection.address_asn


# --------------------------------------------------------------------- #
# The parity test proper
# --------------------------------------------------------------------- #


#: Observations per source in the paper's session (scale 1.0, seed 42).
_OBSERVATIONS = {"active": 15_572, "censys": 9_583, "union": 17_647}


@pytest.fixture(scope="module")
def reports(paper_session):
    """(engine report, seed report, extractions) per source, built once."""
    built = {}
    for source in _OBSERVATIONS:
        observations = list(paper_session.observations(source))
        assert observations, "scenario produced no observations"
        with count_extractions() as engine_extractions:
            engine_report = ResolutionEngine().resolve(observations, name=source)
        with count_extractions() as seed_extractions:
            seed_report = _seed_run_alias_resolution(observations, name=source)
        extractions = {
            "observations": len(observations),
            "engine": engine_extractions.count,
            "seed": seed_extractions.count,
        }
        built[source] = (engine_report, seed_report, extractions)
    return built


@pytest.mark.parametrize("source", ["active", "censys", "union"])
def test_engine_matches_seed_pipeline(reports, source):
    engine_report, seed_report, _ = reports[source]

    for protocol in PROTOCOLS:
        _assert_collections_equal(engine_report.ipv4[protocol], seed_report["ipv4"][protocol])
        _assert_collections_equal(engine_report.ipv6[protocol], seed_report["ipv6"][protocol])
        _assert_collections_equal(
            engine_report.dual_stack[protocol], seed_report["dual_stack"][protocol]
        )

    for attribute in ("ipv4_union", "ipv6_union"):
        engine_union = getattr(engine_report, attribute)
        seed_union = seed_report[attribute]
        assert engine_union.name == seed_union.name
        assert list(engine_union) == _canonical_alias_union(seed_union)
        assert engine_union.address_asn == seed_union.address_asn

    engine_dual = engine_report.dual_stack_union
    seed_dual = seed_report["dual_stack_union"]
    assert engine_dual.name == seed_dual.name
    assert list(engine_dual) == _canonical_dual_union(seed_dual)
    assert engine_dual.address_asn == seed_dual.address_asn


@pytest.mark.parametrize("source", ["active", "censys", "union"])
def test_engine_counts_match_seed(reports, source):
    engine_report, seed_report, _ = reports[source]

    for family in (AddressFamily.IPV4, AddressFamily.IPV6):
        collections = seed_report["ipv4"] if family is AddressFamily.IPV4 else seed_report["ipv6"]
        union = (
            seed_report["ipv4_union"] if family is AddressFamily.IPV4 else seed_report["ipv6_union"]
        )
        expected_counts = {
            protocol.value: len(collections[protocol].non_singleton()) for protocol in PROTOCOLS
        }
        expected_counts["union"] = len(union.non_singleton())
        assert engine_report.non_singleton_counts(family) == expected_counts

        expected_covered = {
            protocol.value: len(collections[protocol].non_singleton().addresses())
            for protocol in PROTOCOLS
        }
        expected_covered["union"] = len(union.non_singleton().addresses())
        assert engine_report.covered_addresses(family) == expected_covered

    assert len(engine_report.dual_stack_union) == len(seed_report["dual_stack_union"])


@pytest.mark.parametrize("source", ["active", "censys", "union"])
def test_engine_extracts_each_observation_once(reports, source):
    # The seed's nine passes extract every observation twice: once in its
    # (protocol, family) grouping and once in its protocol's dual-stack pass.
    _, _, extractions = reports[source]
    observed = _OBSERVATIONS[source]
    assert extractions == {"observations": observed, "engine": observed, "seed": 2 * observed}


@pytest.mark.parametrize("source", ["active", "censys", "union"])
def test_every_source_yields_alias_sets(reports, source):
    engine_report, _, _ = reports[source]
    assert len(engine_report.ipv4_union) > 0
    if source == "censys":
        # The Censys snapshot is IPv4-only.
        assert len(engine_report.ipv6_union) == 0
    else:
        assert len(engine_report.dual_stack_union) > 0


def test_index_counts_every_observation(paper_session):
    observations = list(paper_session.observations("union"))
    index = ObservationIndex.build(observations)
    assert index.observed == len(observations) == _OBSERVATIONS["union"]
    assert 0 < index.indexed <= index.observed
