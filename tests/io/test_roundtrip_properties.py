"""Property tests: dataset and alias-set serialisation is an exact round-trip.

``load(save(dataset)) == dataset`` over hypothesis-generated observations —
all protocols, arbitrary ports, unicode field values, present and absent
ASNs and timestamps — and the same for alias-set documents.  This is the
byte-faithfulness contract the persistence subsystem (:mod:`repro.persist`)
builds on: a restored session may only produce byte-identical reports if
the observations underneath round-trip exactly.  The observation encoder
writes exactly the line ``json.dumps`` writes for the record's dict, so
the bytes of a dataset file do not depend on which of the two wrote it.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.engine import ResolutionEngine
from repro.errors import DatasetError
from repro.io.datasets import (
    load_alias_sets,
    load_observations,
    observation_from_dict,
    observation_json,
    observation_to_dict,
    save_alias_sets,
    save_observations,
)
from repro.simnet.device import ServiceType
from repro.sources.records import Observation, ObservationDataset

_ADDRESSES = [f"10.{i}.0.1" for i in range(8)] + [f"2001:db8::{i:x}" for i in range(1, 5)]

#: Unicode-heavy but newline-free text (JSONL records are one line each;
#: json.dumps escapes everything anyway, so this exercises the worst case).
_FIELD_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=20
)

_NAMES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)


@st.composite
def _observation(draw):
    fields = draw(
        st.dictionaries(keys=_FIELD_TEXT.filter(bool), values=_FIELD_TEXT, max_size=4)
    )
    return Observation(
        address=draw(st.sampled_from(_ADDRESSES)),
        protocol=draw(st.sampled_from(list(ServiceType))),
        source=draw(st.sampled_from(["active", "censys", "архив", "扫描"])),
        port=draw(st.integers(min_value=1, max_value=65535)),
        timestamp=draw(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
        ),
        asn=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4_294_967_295))),
        fields=tuple(sorted(fields.items())),
    )


#: Text JSON must escape: non-ASCII (astral too), quotes, backslashes and
#: control characters, mixed with plain letters.
_ESCAPED_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from('"\\/\x00\x08\x1f\x7f\n\r\t\u00e9\u2028\U0001f600'),
    ),
    max_size=12,
)


@st.composite
def _encodable_observation(draw):
    """An observation whose every string field needs escaping, with empty,
    unsorted or repeated identifier fields, absent or huge ASNs and ports,
    and int, float, non-finite or boolean timestamps."""
    return Observation(
        address=draw(_ESCAPED_TEXT),
        protocol=draw(st.sampled_from(list(ServiceType))),
        source=draw(_ESCAPED_TEXT),
        port=draw(st.integers(min_value=-(2**70), max_value=2**70)),
        timestamp=draw(
            st.one_of(st.integers(min_value=-(2**80), max_value=2**80), st.floats(), st.booleans())
        ),
        asn=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**64))),
        fields=tuple(draw(st.lists(st.tuples(_ESCAPED_TEXT, _ESCAPED_TEXT), max_size=4))),
    )


class TestObservationEncoder:
    @given(observation=_encodable_observation())
    @settings(max_examples=400, deadline=None)
    def test_line_is_json_dumps_of_the_record(self, observation):
        expected = json.dumps(observation_to_dict(observation), sort_keys=True)
        assert observation_json(observation) == expected

    @given(observations=st.lists(_observation(), max_size=8), name=_NAMES)
    @settings(max_examples=25, deadline=None)
    def test_dataset_file_is_header_then_records(self, tmp_path_factory, observations, name):
        path = tmp_path_factory.mktemp("encoded") / "dataset.jsonl"
        save_observations(ObservationDataset(name, observations), path)
        records = [{"__repro_dataset__": 1, "name": name}]
        records += [observation_to_dict(observation) for observation in observations]
        expected = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        assert path.read_text(encoding="utf-8") == expected


@st.composite
def _alias_collection(draw):
    sets = draw(
        st.lists(
            st.builds(
                AliasSet,
                identifier=_NAMES,
                addresses=st.frozensets(st.sampled_from(_ADDRESSES), min_size=1, max_size=5),
                protocols=st.frozensets(st.sampled_from(list(ServiceType)), min_size=1),
            ),
            max_size=6,
        )
    )
    address_asn = draw(
        st.dictionaries(
            keys=st.sampled_from(_ADDRESSES),
            values=st.integers(min_value=1, max_value=65535),
            max_size=6,
        )
    )
    return AliasSetCollection(draw(_NAMES), sets=sets, address_asn=address_asn)


class TestObservationRoundTripProperties:
    @given(observation=_observation())
    @settings(max_examples=200, deadline=None)
    def test_dict_roundtrip_identity(self, observation):
        assert observation_from_dict(observation_to_dict(observation)) == observation

    @given(
        observations=st.lists(_observation(), max_size=20),
        name=_NAMES,
    )
    @settings(max_examples=50, deadline=None)
    def test_file_roundtrip_identity(self, tmp_path_factory, observations, name):
        dataset = ObservationDataset(name, observations)
        path = tmp_path_factory.mktemp("roundtrip") / "dataset.jsonl"
        count = save_observations(dataset, path)
        assert count == len(observations)
        loaded = load_observations(path)
        assert loaded.name == dataset.name
        assert list(loaded) == list(dataset)

    @given(observations=st.lists(_observation(), max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_double_roundtrip_is_stable(self, tmp_path_factory, observations):
        # load(save(load(save(ds)))) == load(save(ds)): no lossy coercion on
        # either side of the trip.
        dataset = ObservationDataset("ds", observations)
        base = tmp_path_factory.mktemp("stable")
        save_observations(dataset, base / "one.jsonl")
        once = load_observations(base / "one.jsonl")
        save_observations(once, base / "two.jsonl")
        twice = load_observations(base / "two.jsonl")
        assert list(twice) == list(once) == list(dataset)


#: Any JSON value the reader can meet, nested a little.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

#: Identifier fields each protocol resolves on, so records can merge.
_IDENTIFYING_FIELDS = {
    ServiceType.SSH: {"host_key_fingerprint": "SHA256:abc", "capability_signature": "c"},
    ServiceType.BGP: {"bgp_identifier": "192.0.2.1", "asn": "64512", "version": "4"},
    ServiceType.SNMPV3: {"engine_id": "80001f8880"},
}


class TestMalformedRecordFuzz:
    """One field of a valid record replaced with arbitrary JSON: the loader
    raises DatasetError, or what it returns resolves."""

    @given(
        protocol=st.sampled_from(list(_IDENTIFYING_FIELDS)),
        key=st.sampled_from(["address", "protocol", "source", "port", "timestamp", "asn", "fields"]),
        value=_JSON,
    )
    @settings(max_examples=300, deadline=None)
    def test_one_bad_field_fails_typed_or_resolves(self, protocol, key, value):
        def observation(address):
            return Observation(
                address=address,
                protocol=protocol,
                source="active",
                port=22,
                fields=tuple(sorted(_IDENTIFYING_FIELDS[protocol].items())),
            )

        record = observation_to_dict(observation("10.0.0.1"))
        record[key] = value
        try:
            loaded = observation_from_dict(record)
        except DatasetError:
            return
        # Siblings of both families share the identifier, so the resolver
        # groups and sorts the loaded address together with them.
        siblings = [observation("10.0.0.2"), observation("2001:db8::2")]
        ResolutionEngine().resolve([loaded, *siblings])


class TestAliasSetRoundTripProperties:
    @given(collection=_alias_collection())
    @settings(max_examples=50, deadline=None)
    def test_document_roundtrip(self, tmp_path_factory, collection):
        path = tmp_path_factory.mktemp("alias") / "sets.json"
        save_alias_sets(collection, path)
        loaded = load_alias_sets(path)
        assert loaded.name == collection.name
        assert loaded.address_asn == collection.address_asn
        assert sorted(
            (s.identifier, s.addresses, s.protocols) for s in loaded
        ) == sorted((s.identifier, s.addresses, s.protocols) for s in collection)
