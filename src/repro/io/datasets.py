"""Serialisation of observations and alias sets.

Observations round-trip through JSON-lines; alias-set and dual-stack
collections are stored as single JSON documents (the natural shape for a
published analysis artifact).

The observation round-trip is **exact**: ``load(save(dataset))`` equals
``dataset`` field for field.  That guarantee is what the persistence layer
(:mod:`repro.persist`) builds on — a re-loaded dataset must re-resolve to
byte-identical reports — so malformed records fail loudly with
:class:`~repro.errors.DatasetError` instead of being silently coerced.

Dataset files carry a header record (:data:`DATASET_HEADER_KEY`) naming the
dataset, so renaming or copying a JSONL file does not relabel the source in
reports or content-keyed longitudinal deltas.  Headerless files (written
before the header existed, or by other tools) still load, falling back to
the file stem.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.errors import DatasetError, PersistError
from repro.io.jsonl import dataset_text, parse_jsonl, read_dataset_bytes
from repro.net.addresses import family_of
from repro.simnet.device import ServiceType
from repro.sources.records import MAX_ASN, Observation, ObservationDataset

#: Marker key of the dataset header record (first line of a dataset file).
#: Its value is the format version; observation records never carry it.
DATASET_HEADER_KEY = "__repro_dataset__"

#: Current dataset file format version.
DATASET_FORMAT_VERSION = 1


def observation_to_dict(observation: Observation) -> dict:
    """Convert an observation to a JSON-serialisable dict."""
    return {
        "address": observation.address,
        "protocol": observation.protocol.value,
        "source": observation.source,
        "port": observation.port,
        "timestamp": observation.timestamp,
        "asn": observation.asn,
        "fields": observation.fields_dict(),
    }


#: ``json.dumps``'s own string encoder (its C implementation when built).
_encode_string = json.encoder.encode_basestring_ascii


def _json_value(value: object) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True)`` writes it.

    A ``str``, an ``int``, a finite ``float`` (each of exactly that type)
    and ``None`` are written directly; anything else (a bool, a non-finite
    float, a subclass) goes through ``json.dumps``.
    """
    kind = type(value)
    if kind is str:
        return _encode_string(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    if value is None:
        return "null"
    return json.dumps(value, sort_keys=True)


def observation_json(observation: Observation) -> str:
    """One observation's dataset-file line, without its newline.

    The line is exactly ``json.dumps(observation_to_dict(observation),
    sort_keys=True)``, built without the intermediate dicts: the keys in
    sorted order, ``json.dumps``'s separators, strings through its ASCII
    string encoder and numbers through ``repr``.  Identifier field names
    must be strings, as the type says; another name raises ``TypeError``.
    """
    fields = ", ".join(
        [
            f"{_encode_string(key)}: {_json_value(value)}"
            for key, value in sorted(observation.fields_dict().items())
        ]
    )
    return (
        f'{{"address": {_json_value(observation.address)}, '
        f'"asn": {_json_value(observation.asn)}, '
        f'"fields": {{{fields}}}, '
        f'"port": {_json_value(observation.port)}, '
        f'"protocol": {_json_value(observation.protocol.value)}, '
        f'"source": {_json_value(observation.source)}, '
        f'"timestamp": {_json_value(observation.timestamp)}}}'
    )


def _coerce_int(value: object, field: str, record: dict) -> int:
    """Coerce an integer field exactly; reject bools, floats and junk.

    JSON has one number type, and hand-written records quote numbers often
    enough that ``"asn": "64512"`` must mean 64512 — but a float or a bool
    is never a valid ASN or port, and truncating one would corrupt the
    round-trip silently.
    """
    if type(value) is int or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError as exc:
            raise DatasetError(
                f"malformed observation record ({field} {value!r} is not an integer): {record!r}"
            ) from exc
    raise DatasetError(
        f"malformed observation record ({field} {value!r} is not an integer): {record!r}"
    )


def _coerce_timestamp(value: object, record: dict) -> float:
    """Coerce a timestamp to a finite float; reject bools, ``inf`` and ``NaN``.

    A quoted number loads, as a quoted ASN does.  A boolean is no time, and
    a non-finite one would sort after (or compare unequal to) every real
    observation time.
    """
    if type(value) is float and math.isfinite(value):
        return value
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            timestamp = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(timestamp):
                return timestamp
    raise DatasetError(
        f"malformed observation record (timestamp {value!r} is not a finite number): {record!r}"
    )


def _exact_fields(record: dict) -> tuple[tuple[str, str], ...]:
    """Validate and normalise the identifier fields of one record.

    Values must already be strings: coercing (say) a JSON number through
    ``str()`` would make ``load(save(load(x)))`` differ from ``load(x)``
    whenever the coercion is not the identity.
    """
    fields = record.get("fields", {})
    if not isinstance(fields, dict):
        raise DatasetError(f"malformed observation record (fields is not an object): {record!r}")
    for key, value in fields.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise DatasetError(
                f"malformed observation record (non-string field {key!r}: {value!r}): {record!r}"
            )
    return tuple(sorted(fields.items()))


#: Each protocol by its value: the lookup ``ServiceType(value)`` makes,
#: without the enum machinery, for the values a dataset file holds.
_PROTOCOLS = {protocol.value: protocol for protocol in ServiceType}


def observation_from_dict(record: dict) -> Observation:
    """Rebuild an observation from its dict form (exact inverse of
    :func:`observation_to_dict`)."""
    if not isinstance(record, dict):
        raise DatasetError(f"malformed observation record (not an object): {record!r}")
    address = record.get("address")
    if not isinstance(address, str):
        raise DatasetError(
            f"malformed observation record (address {address!r} is not a string): {record!r}"
        )
    try:
        family_of(address)  # cached: the index asks again on add
    except ValueError as exc:
        raise DatasetError(
            f"malformed observation record (address {address!r} is not an IP address): {record!r}"
        ) from exc
    source = record.get("source")
    if not isinstance(source, str):
        raise DatasetError(
            f"malformed observation record (source {source!r} is not a string): {record!r}"
        )
    asn = record.get("asn")
    if asn is not None:
        asn = _coerce_int(asn, "asn", record)
        if not 0 <= asn <= MAX_ASN:
            raise DatasetError(
                f"malformed observation record (asn {asn} is not a 32-bit AS number): {record!r}"
            )
    try:
        protocol = record["protocol"]
        # An unhashable value raises TypeError here, as the enum lookup
        # raises ValueError: both are the record's error below.
        protocol = _PROTOCOLS.get(protocol) or ServiceType(protocol)
        return Observation(
            address,
            protocol,
            source,
            _coerce_int(record["port"], "port", record),
            _coerce_timestamp(record.get("timestamp", 0.0), record),
            asn,
            _exact_fields(record),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DatasetError(f"malformed observation record: {record!r}") from exc


def dataset_header(name: str) -> dict:
    """The header record embedding a dataset's name in its file."""
    return {DATASET_HEADER_KEY: DATASET_FORMAT_VERSION, "name": name}


def save_observations(dataset: ObservationDataset, path: str | Path) -> int:
    """Write a dataset to a JSON-lines file; returns the observation count.

    The first line is a header record carrying the dataset name, so the
    file can be renamed or copied without relabelling the source (parent
    directories are created, matching :func:`save_alias_sets`).  Every
    observation is written by :func:`observation_json`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(dataset_header(dataset.name), sort_keys=True) + "\n")
        for observation in dataset:
            handle.write(observation_json(observation) + "\n")
            count += 1
    return count


def load_observations(
    path: str | Path, name: str | None = None, digest: str | None = None
) -> ObservationDataset:
    """Load a dataset from a JSON-lines file.

    The dataset name is taken from (in order of preference) the ``name``
    argument, the file's header record, and — for headerless files — the
    file stem.

    The file is read once.  With a ``digest`` (the SHA-256 hex digest a
    manifest pins), the bytes are hashed and compared first, and the same
    bytes are then decoded and parsed; the bytes are dropped once decoded.
    Each record is read by :func:`observation_from_dict`.

    Raises:
        PersistError: if the bytes do not match ``digest``.
        DatasetError: if the file is missing or unreadable, is not UTF-8,
            or holds a line that is not JSON, a bad header or a malformed
            record.
    """
    # The header errors name ``path`` as given, as they always have.
    file = Path(path)
    data = read_dataset_bytes(file)
    if digest is not None:
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise PersistError(
                f"dataset {file} does not match its pinned content digest "
                f"(pinned {str(digest)[:12]}…, file {actual[:12]}…)"
            )
    text = dataset_text(data, file)
    del data  # parsed from ``text`` alone
    observations: list[Observation] = []
    header_name: str | None = None
    for position, record in enumerate(parse_jsonl(text, file)):
        if position == 0 and isinstance(record, dict) and DATASET_HEADER_KEY in record:
            version = record[DATASET_HEADER_KEY]
            if not isinstance(version, int) or version > DATASET_FORMAT_VERSION:
                raise DatasetError(
                    f"{path}: unsupported dataset format version {version!r}"
                )
            header_name = record.get("name")
            if not isinstance(header_name, str):
                raise DatasetError(f"{path}: dataset header carries no name: {record!r}")
            continue
        observations.append(observation_from_dict(record))
    return ObservationDataset(name or header_name or file.stem, observations)


def save_alias_sets(collection: AliasSetCollection, path: str | Path) -> None:
    """Write an alias-set collection to a JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "name": collection.name,
        "address_asn": collection.address_asn,
        "sets": [
            {
                "identifier": alias_set.identifier,
                "addresses": sorted(alias_set.addresses),
                "protocols": sorted(protocol.value for protocol in alias_set.protocols),
            }
            for alias_set in collection
        ],
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True), encoding="utf-8")


def load_alias_sets(path: str | Path) -> AliasSetCollection:
    """Load an alias-set collection from a JSON document."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"alias-set file {path} does not exist")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        collection = AliasSetCollection(
            document["name"], address_asn={k: int(v) for k, v in document.get("address_asn", {}).items()}
        )
        for entry in document["sets"]:
            collection.add(
                AliasSet(
                    identifier=entry["identifier"],
                    addresses=frozenset(entry["addresses"]),
                    protocols=frozenset(ServiceType(value) for value in entry.get("protocols", [])),
                )
            )
        return collection
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise DatasetError(f"malformed alias-set document {path}") from exc
