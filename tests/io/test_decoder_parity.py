"""The dataset loader reads every file exactly as the previous decoder did.

:func:`repro.io.datasets.load_observations` reads a file once, as bytes,
slices the decoded text into lines, parses each with the JSON decoder's
``raw_decode``, and :func:`~repro.io.datasets.observation_from_dict`
takes an exact ``int`` port and a finite ``float`` timestamp without its
coercion helpers and looks the protocol up in a dict.  Over
hypothesis-generated files of valid and mutated lines it must return a
dataset equal to the one ``reference_decoder`` returns, or raise the
same exception type with the same message.
"""

import enum
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_decoder import load_observations as reference_load
from reference_decoder import observation_from_dict as reference_observation

from repro.errors import DatasetError, PersistError
from repro.io.datasets import load_observations, observation_from_dict, save_observations
from repro.io.jsonl import read_jsonl
from repro.simnet.device import ServiceType
from repro.sources.records import Observation, ObservationDataset

_VALID = {
    "address": "10.0.0.1",
    "asn": 64512,
    "fields": {"banner": "SSH-2.0-OpenSSH_9.3", "host_key_fingerprint": "SHA256:abc"},
    "port": 22,
    "protocol": "ssh",
    "source": "active",
    "timestamp": 12.5,
}

#: Per key, values the encoder writes and values it never writes.
_VALUES = {
    "address": ["10.0.0.1", "2001:db8::1", "10.0.0.256", "not-an-ip", "", 5, None, ["10.0.0.1"]],
    "asn": [
        None, 0, 64512, 2**32 - 1, 2**32, -1, True, False, 64512.0, 1.5, "64512", "x", [1], {"a": 1},
    ],
    "fields": [
        {},
        {"banner": "x"},
        {"b": "y", "a": "z"},
        {"hold_time": 180},
        {"a": ["x"]},
        {"a": None},
        {"a": True},
        {"a": {"b": "c"}},
        {"a": ["x"], "b": 1},
        [["banner", "x"]],
        "banner",
        None,
    ],
    "port": [22, 0, 65535, -1, 10**20, True, False, 22.0, 22.5, "22", " 22", "x", None, [22]],
    "protocol": ["ssh", "bgp", "snmpv3", "SSH", "telnet", 1, None, ["ssh"], {"ssh": 1}],
    "source": ["active", "censys", "", 7, None, True, ["active"]],
    "timestamp": [
        0.0, 12.5, -3.0, 1e300, 7, "12.5", " 7 ", "inf", "nan", "1e400", "x", True, None,
        float("inf"), float("-inf"), float("nan"), 10**400, [1.0],
    ],
}

_HEADERS = [
    {"__repro_dataset__": 1, "name": "active"},
    {"__repro_dataset__": 2, "name": "future"},
    {"__repro_dataset__": "1", "name": "quoted"},
    {"__repro_dataset__": True, "name": "boolean"},
    {"__repro_dataset__": 1},
    {"__repro_dataset__": 1, "name": 5},
]


@st.composite
def _records(draw):
    """A record: the valid one with some values swapped, dropped or added."""
    record = dict(_VALID)
    swapped = draw(st.sampled_from([0, 0, 0, 1, 1, 2]))
    keys = st.lists(st.sampled_from(sorted(_VALUES)), min_size=swapped, max_size=swapped, unique=True)
    for key in draw(keys):
        if draw(st.booleans()):
            record[key] = draw(st.sampled_from(_VALUES[key]))
        else:
            del record[key]
    if draw(st.integers(0, 9)) == 0:
        record["extra"] = "ignored"
    return record


@st.composite
def _lines(draw):
    """One line's text, before its line ending."""
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return ""
    if kind == 1:
        return draw(st.sampled_from(["5", '"text"', "[1, 2]", "null", "not json", "{", "}"]))
    record = draw(_records())
    text = json.dumps(record, ensure_ascii=draw(st.booleans()))
    if kind == 2:
        text += draw(st.sampled_from([" x", "}", " {}", ",", "\x0b{}", " 1"]))
    if kind == 3:
        text = draw(st.sampled_from([" ", "\t", "\x85", "　"])) + text
    if kind == 4:
        text += draw(st.sampled_from([" ", "\t", "\x0c", " "]))
    return text


@st.composite
def _files(draw):
    lines = draw(st.lists(_lines(), max_size=8))
    if draw(st.booleans()):
        valid = draw(st.integers(0, 3)) > 0
        lines.insert(0, json.dumps(_HEADERS[0] if valid else draw(st.sampled_from(_HEADERS))))
    endings = draw(
        st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines))
    )
    text = "".join(line + ending for line, ending in zip(lines, endings, strict=True))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline at the end of the file
    return text.encode("utf-8")


def _outcome(load, *arguments):
    try:
        dataset = load(*arguments)
    except Exception as exc:  # any type: the type is what is compared
        return ("raises", type(exc), str(exc))
    return ("loads", dataset.name, list(dataset))


class TestDecoderParity:
    @settings(max_examples=400, deadline=None)
    @given(data=_files())
    def test_loads_or_raises_like_the_reference(self, data):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "dataset.jsonl"
            path.write_bytes(data)
            assert _outcome(load_observations, path) == _outcome(reference_load, path)
            assert _outcome(load_observations, str(path)) == _outcome(reference_load, str(path))

    @settings(max_examples=100, deadline=None)
    @given(record=_records())
    def test_each_record_alone(self, record):
        # One record per file: every mutation reaches the record decoder.
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "one.jsonl"
            path.write_text(json.dumps(record) + "\n")
            assert _outcome(load_observations, path) == _outcome(reference_load, path)


class _Port(enum.IntEnum):
    SSH = 22


class _Seconds(float):
    pass


class TestRecordParity:
    """Values no JSON file holds still read as the reference reads them."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("protocol", ServiceType.BGP),
            ("port", _Port.SSH),
            ("asn", _Port.SSH),
            ("timestamp", _Seconds(1.5)),
            ("timestamp", _Seconds("inf")),
            ("fields", {"banner": _Port.SSH}),
        ],
    )
    def test_python_values(self, key, value):
        record = dict(_VALID, **{key: value})
        assert _outcome(_one, observation_from_dict, record) == _outcome(
            _one, reference_observation, record
        )


def _one(decode, record):
    """``record`` decoded, as a one-observation dataset for :func:`_outcome`."""
    return ObservationDataset("one", [decode(record)])


class TestReaderErrors:
    """Failures the previous reader let escape untyped are DatasetErrors."""

    def test_directory_raises_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read dataset file"):
            load_observations(tmp_path)
        with pytest.raises(DatasetError, match="cannot read dataset file"):
            list(read_jsonl(tmp_path))

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, ending):
        path = tmp_path / "binary.jsonl"
        header = json.dumps({"__repro_dataset__": 1, "name": "x"}).encode()
        path.write_bytes(header + ending + ending + b'{"address": "\xff"}' + ending)
        with pytest.raises(DatasetError, match=rf"{path.name}:3: not UTF-8 text"):
            load_observations(path)
        with pytest.raises(DatasetError, match=r":3: not UTF-8 text"):
            list(read_jsonl(path))


class TestDigest:
    def test_matching_digest_loads(self, tmp_path):
        path = tmp_path / "pinned.jsonl"
        save_observations(
            ObservationDataset("x", [Observation("10.0.0.1", ServiceType.SSH, "a", 22)]), path
        )
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert list(load_observations(path, digest=digest)) == list(load_observations(path))

    def test_other_digest_raises_before_parsing(self, tmp_path):
        path = tmp_path / "pinned.jsonl"
        path.write_text("not json\n")
        with pytest.raises(PersistError, match="content digest"):
            load_observations(path, digest="0" * 64)
