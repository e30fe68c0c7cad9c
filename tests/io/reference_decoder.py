"""The previous dataset-file decoder, kept as the reference of the current one.

This is ``load_observations`` as it was before the loader read each file
once and parsed records without ``json.loads``: ``read_jsonl`` over a
text-mode handle, then ``observation_from_dict`` for every record.
``test_decoder_parity.py`` requires the current
:func:`repro.io.datasets.load_observations` to return an equal dataset
for every file this one loads, and to raise the same exception type and
message for every file it rejects.  Do not "fix" this module: its
messages are the ones users saw.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.errors import DatasetError
from repro.net.addresses import family_of
from repro.simnet.device import ServiceType
from repro.sources.records import Observation, ObservationDataset

DATASET_HEADER_KEY = "__repro_dataset__"
DATASET_FORMAT_VERSION = 1
_MAX_ASN = 2**32 - 1


def read_jsonl(path):
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{line_number}: invalid JSON") from exc


def _coerce_int(value, field, record):
    if isinstance(value, int) and not isinstance(value, bool):
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


def _coerce_timestamp(value, record):
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


def _exact_fields(record):
    fields = record.get("fields", {})
    if not isinstance(fields, dict):
        raise DatasetError(f"malformed observation record (fields is not an object): {record!r}")
    for key, value in fields.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise DatasetError(
                f"malformed observation record (non-string field {key!r}: {value!r}): {record!r}"
            )
    return tuple(sorted(fields.items()))


def observation_from_dict(record):
    if not isinstance(record, dict):
        raise DatasetError(f"malformed observation record (not an object): {record!r}")
    address = record.get("address")
    if not isinstance(address, str):
        raise DatasetError(
            f"malformed observation record (address {address!r} is not a string): {record!r}"
        )
    try:
        family_of(address)
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
        if not 0 <= asn <= _MAX_ASN:
            raise DatasetError(
                f"malformed observation record (asn {asn} is not a 32-bit AS number): {record!r}"
            )
    try:
        return Observation(
            address=address,
            protocol=ServiceType(record["protocol"]),
            source=source,
            port=_coerce_int(record["port"], "port", record),
            timestamp=_coerce_timestamp(record.get("timestamp", 0.0), record),
            asn=asn,
            fields=_exact_fields(record),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DatasetError(f"malformed observation record: {record!r}") from exc


def load_observations(path, name=None):
    observations = []
    header_name = None
    for position, record in enumerate(read_jsonl(path)):
        if position == 0 and isinstance(record, dict) and DATASET_HEADER_KEY in record:
            version = record[DATASET_HEADER_KEY]
            if not isinstance(version, int) or version > DATASET_FORMAT_VERSION:
                raise DatasetError(f"{path}: unsupported dataset format version {version!r}")
            header_name = record.get("name")
            if not isinstance(header_name, str):
                raise DatasetError(f"{path}: dataset header carries no name: {record!r}")
            continue
        observations.append(observation_from_dict(record))
    return ObservationDataset(name or header_name or Path(path).stem, observations)
