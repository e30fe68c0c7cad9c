"""Tests for JSONL helpers and dataset persistence."""

import json

import pytest

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.errors import DatasetError
from repro.io.datasets import (
    DATASET_HEADER_KEY,
    load_alias_sets,
    load_observations,
    observation_from_dict,
    observation_to_dict,
    save_alias_sets,
    save_observations,
)
from repro.io.jsonl import read_jsonl
from repro.simnet.device import ServiceType
from repro.sources.records import Observation, ObservationDataset


def sample_observation(address="10.0.0.1"):
    return Observation(
        address=address,
        protocol=ServiceType.SSH,
        source="active",
        port=22,
        timestamp=12.5,
        asn=14061,
        fields=(("banner", "SSH-2.0-OpenSSH_9.3"), ("host_key_fingerprint", "SHA256:abc")),
    )


class TestJsonl:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            list(read_jsonl(tmp_path / "absent.jsonl"))

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(DatasetError):
            list(read_jsonl(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert len(list(read_jsonl(path))) == 2


class TestObservationSerialisation:
    def test_dict_roundtrip(self):
        observation = sample_observation()
        assert observation_from_dict(observation_to_dict(observation)) == observation

    def test_malformed_record_raises(self):
        with pytest.raises(DatasetError):
            observation_from_dict({"address": "10.0.0.1"})

    def test_string_asn_coerced_to_int(self):
        record = observation_to_dict(sample_observation())
        record["asn"] = "64512"
        loaded = observation_from_dict(record)
        assert loaded.asn == 64512
        assert isinstance(loaded.asn, int)

    def test_none_asn_preserved(self):
        record = observation_to_dict(sample_observation())
        record["asn"] = None
        assert observation_from_dict(record).asn is None

    @pytest.mark.parametrize("bad_asn", ["not-a-number", 1.5, 64512.0, True, [64512]])
    def test_malformed_asn_raises(self, bad_asn):
        record = observation_to_dict(sample_observation())
        record["asn"] = bad_asn
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    @pytest.mark.parametrize(
        "asn",
        [-1, 2**32, 2**63, "9223372036854775808"],
        ids=["negative", "2**32", "2**63", "quoted-2**63"],
    )
    def test_asn_outside_32_bits_raises(self, asn):
        # 2**63 does not fit the index's signed 64-bit ASN column either.
        record = observation_to_dict(sample_observation())
        record["asn"] = asn
        with pytest.raises(DatasetError, match="not a 32-bit AS number"):
            observation_from_dict(record)

    @pytest.mark.parametrize("asn", [0, 2**32 - 1])
    def test_asn_bounds_load(self, asn):
        record = observation_to_dict(sample_observation())
        record["asn"] = asn
        assert observation_from_dict(record).asn == asn

    @pytest.mark.parametrize(
        "bad_timestamp",
        ["inf", "-inf", "nan", "1e400", float("inf"), float("nan"), 10**400, True, False, [12.5]],
        ids=[
            "quoted-inf",
            "quoted-minus-inf",
            "quoted-nan",
            "quoted-overflow",
            "inf",
            "nan",
            "int-overflow",
            "true",
            "false",
            "list",
        ],
    )
    def test_malformed_timestamp_raises(self, bad_timestamp):
        record = observation_to_dict(sample_observation())
        record["timestamp"] = bad_timestamp
        with pytest.raises(DatasetError, match="timestamp"):
            observation_from_dict(record)

    @pytest.mark.parametrize("quoted, expected", [("12.5", 12.5), ("7", 7.0), ("-3e2", -300.0)])
    def test_quoted_timestamp_coerced_to_float(self, quoted, expected):
        record = observation_to_dict(sample_observation())
        record["timestamp"] = quoted
        assert observation_from_dict(record).timestamp == expected

    @pytest.mark.parametrize(
        "bad_source",
        [["active"], {"name": "active"}, 7, True, None],
        ids=["list", "object", "int", "bool", "null"],
    )
    def test_non_string_source_raises(self, bad_source):
        # An object source would make the frozen observation unhashable.
        record = observation_to_dict(sample_observation())
        record["source"] = bad_source
        with pytest.raises(DatasetError, match="source"):
            observation_from_dict(record)

    def test_non_finite_timestamp_in_a_file_raises(self, tmp_path):
        path = tmp_path / "infinite.jsonl"
        record = observation_to_dict(sample_observation())
        path.write_text(json.dumps(record).replace("12.5", "Infinity") + "\n")
        with pytest.raises(DatasetError, match="timestamp"):
            load_observations(path)

    @pytest.mark.parametrize("bad_port", [22.0, "twenty-two", None, False])
    def test_malformed_port_raises(self, bad_port):
        record = observation_to_dict(sample_observation())
        record["port"] = bad_port
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    @pytest.mark.parametrize(
        "bad_address",
        [167772161, "not-an-ip", "", None, ["10.0.0.1"]],
        ids=["int", "not-an-ip", "empty", "null", "list"],
    )
    def test_malformed_address_raises(self, bad_address):
        record = observation_to_dict(sample_observation())
        record["address"] = bad_address
        with pytest.raises(DatasetError, match="address"):
            observation_from_dict(record)

    def test_non_string_field_value_raises(self):
        record = observation_to_dict(sample_observation())
        record["fields"] = {"hold_time": 180}
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    def test_non_dict_fields_raises(self):
        record = observation_to_dict(sample_observation())
        record["fields"] = [["banner", "SSH-2.0"]]
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    @pytest.mark.parametrize("bad_record", [5, "text", [1, 2], None])
    def test_non_object_record_raises(self, bad_record):
        with pytest.raises(DatasetError):
            observation_from_dict(bad_record)

    @pytest.mark.parametrize("bad_line", ["5", '"text"', "[1, 2]"])
    def test_non_object_line_raises_dataset_error(self, tmp_path, bad_line):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            bad_line + "\n" + json.dumps(observation_to_dict(sample_observation())) + "\n"
        )
        with pytest.raises(DatasetError):
            load_observations(path)

    def test_exact_roundtrip_identity(self):
        observation = sample_observation()
        loaded = observation_from_dict(observation_to_dict(observation))
        assert loaded == observation
        assert observation_to_dict(loaded) == observation_to_dict(observation)

    def test_dataset_roundtrip(self, tmp_path):
        dataset = ObservationDataset("active", [sample_observation(), sample_observation("10.0.0.2")])
        path = tmp_path / "obs.jsonl"
        assert save_observations(dataset, path) == 2
        loaded = load_observations(path, name="active")
        assert len(loaded) == 2
        assert loaded.addresses() == {"10.0.0.1", "10.0.0.2"}
        assert list(loaded)[0].field("banner") == "SSH-2.0-OpenSSH_9.3"


class TestDatasetHeader:
    def test_renamed_file_keeps_dataset_name(self, tmp_path):
        dataset = ObservationDataset("active", [sample_observation()])
        path = tmp_path / "obs.jsonl"
        save_observations(dataset, path)
        renamed = tmp_path / "copy-for-archive.jsonl"
        renamed.write_bytes(path.read_bytes())
        assert load_observations(renamed).name == "active"

    def test_explicit_name_overrides_header(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        save_observations(ObservationDataset("active", [sample_observation()]), path)
        assert load_observations(path, name="renamed").name == "renamed"

    def test_headerless_file_falls_back_to_stem(self, tmp_path):
        import json

        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps(observation_to_dict(sample_observation())) + "\n")
        loaded = load_observations(path)
        assert loaded.name == "legacy"
        assert len(loaded) == 1

    def test_header_not_counted_as_observation(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        count = save_observations(ObservationDataset("active", [sample_observation()]), path)
        assert count == 1
        assert len(load_observations(path)) == 1

    def test_unsupported_version_raises(self, tmp_path):
        import json

        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({DATASET_HEADER_KEY: 999, "name": "x"}) + "\n")
        with pytest.raises(DatasetError):
            load_observations(path)

    def test_nameless_header_raises(self, tmp_path):
        import json

        path = tmp_path / "broken.jsonl"
        path.write_text(json.dumps({DATASET_HEADER_KEY: 1}) + "\n")
        with pytest.raises(DatasetError):
            load_observations(path)

    def test_save_creates_parent_directories(self, tmp_path):
        # Symmetric with save_alias_sets: both save paths mkdir(parents=True).
        path = tmp_path / "deeply" / "nested" / "obs.jsonl"
        assert save_observations(ObservationDataset("active", [sample_observation()]), path) == 1
        assert load_observations(path).name == "active"


class TestAliasSetSerialisation:
    def test_roundtrip(self, tmp_path):
        collection = AliasSetCollection(
            "ssh",
            [
                AliasSet("id-1", frozenset({"10.0.0.1", "10.0.0.2"}), frozenset({ServiceType.SSH})),
                AliasSet("id-2", frozenset({"10.1.0.1"}), frozenset({ServiceType.SSH, ServiceType.BGP})),
            ],
            address_asn={"10.0.0.1": 1, "10.0.0.2": 1, "10.1.0.1": 2},
        )
        path = tmp_path / "sets.json"
        save_alias_sets(collection, path)
        loaded = load_alias_sets(path)
        assert loaded.name == "ssh"
        assert len(loaded) == 2
        assert loaded.asn_of("10.1.0.1") == 2
        two_set = next(s for s in loaded if s.size == 2)
        assert two_set.addresses == frozenset({"10.0.0.1", "10.0.0.2"})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_alias_sets(tmp_path / "absent.json")

    def test_malformed_document_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(DatasetError):
            load_alias_sets(path)

    def test_save_creates_parent_directories(self, tmp_path):
        collection = AliasSetCollection(
            "ssh", [AliasSet("id-1", frozenset({"10.0.0.1"}), frozenset({ServiceType.SSH}))]
        )
        path = tmp_path / "deeply" / "nested" / "sets.json"
        save_alias_sets(collection, path)
        assert load_alias_sets(path).name == "ssh"
