"""Persist and restore a :class:`~repro.api.session.ReproSession`.

A saved session stores what was measured, the AS table, and how to
derive the rest.  It is a directory:

* ``session.json`` — manifest: format version, the save's generation,
  the :class:`~repro.api.config.ScenarioConfig`, the identifier options,
  and one entry per cached dataset and report, each carrying its
  declarative :class:`~repro.api.sources.SourceSpec` tree and name.  When
  the session holds the topology or a loaded table, ``as_table`` lists one
  ``[asn, name, role]`` row per AS: Tables 5 and 6 join on it, and the
  registry cannot be rebuilt without the whole topology (each ASN is
  drawn from the topology generator's random stream after the previous
  AS's devices).  A save never builds the topology to write the table.
* ``datasets/GGGG-PPP.jsonl`` — one JSON-lines file per measured dataset
  (a spec without inputs: a scan or a ``file`` source), pinned by the
  SHA-256 digest of its bytes.  A combinator dataset (``union``,
  ``standard-ports``, a materialised ``concat``) has a manifest entry
  with its name and count, and no file.  A load reads each file once,
  hashing the bytes it then parses, and records the file and its pin on
  the session (:meth:`~repro.api.session.ReproSession.prime_dataset`); a
  save points the record at the file it wrote.  A save copies a recorded
  file whose bytes still match the pin
  (:func:`~repro.persist.files.copy_pinned`), so a loaded session's
  re-save writes the dataset files it loaded byte for byte, and encodes
  the dataset otherwise: a fresh scan, a ``file`` source, a session saved
  before pins, a file edited, replaced or deleted since, or a dataset
  grown or renamed since (the record keeps its name and length).
* ``validations/GGGG-PPP.json`` — one document per cached validation
  report (:mod:`repro.persist.validation`), signature-verified on load.
* ``banks/GGGG-PPP.json`` — the document of the session's validation
  sample bank (:mod:`repro.persist.bank`), whose ``state`` is written as
  the canonical text its signature hashes, signature-verified on load; a
  reloaded session re-scores matching validation schedules from it with
  zero network probes.  Older saves may hold banks of other vantages too:
  each is verified, and only the bank of
  :data:`~repro.validation.runner.VALIDATION_VANTAGE` is restored.

``GGGG`` is the save's generation, one above the manifest it replaces (a
manifest without one counts as 0), and ``PPP`` the entry's position.  A
save never overwrites a file the manifest on disk names, and the manifest
lands last, so a save over an existing session that dies at any write
leaves the previous session loadable.  Once the new manifest has landed,
the data files of earlier saves — numbered, or the unnumbered ``PPP``
names older saves used, and the ``reports/`` documents and merged-dataset
files older saves wrote — are pruned; other files are left alone.

``load_session`` rebuilds the session with its caches holding the same
keys in the same order: measured datasets load from their files, then
combinators are rebuilt from them and the reports resolved again under
the saved options.  A load never measures and builds no topology; an
entry that needs a dataset the manifest does not hold fails.  Anything
*not* cached is built lazily from the session's (deterministic)
configuration: the topology is built at the first bank miss, scan, or AS
read the saved table cannot answer.  Older sessions load too: a report
entry's ``file`` and ``signature`` are ignored, a merged dataset saved as
a file loads from it, a manifest without ``as_table`` reads the AS
registry from the topology, built at the first AS read, and a ``config``
holding the former rates and coverages loads while each is at its fixed
value (:func:`~repro.persist.files.read_scenario`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

from repro.api.sources import SourceSpec, streamed_specs
from repro.errors import DatasetError, PersistError, ReproError
from repro.io.datasets import load_observations
from repro.jsonvalues import json_count, json_integer, json_string
from repro.persist.bank import bank_document_text, bank_state_from_document
from repro.persist.files import (
    copy_pinned,
    read_field,
    read_identifier_options,
    read_json_document,
    read_pinned_document,
    read_scenario,
    read_spec,
    save_observations_atomic,
    spec_to_document,
    write_atomic,
)
from repro.persist.validation import (
    validation_from_document,
    validation_to_document,
    validator_spec_from_document,
)
from repro.simnet.asn import AsRegistry, AsRole, AutonomousSystem
from repro.sources.records import ObservationDataset
from repro.validation.bank import IpidSampleBank
from repro.validation.runner import VALIDATION_VANTAGE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.api.session import ReproSession

Parsed = TypeVar("Parsed")

#: Current session directory format version.
SESSION_FORMAT_VERSION = 1

#: Manifest file name inside a session directory.
SESSION_MANIFEST = "session.json"

#: The data directories of a session and the suffix of their files.  A
#: save writes nothing under ``reports/``; it stays here so a save over an
#: older session prunes the report documents that session wrote.
_DATA_SUFFIXES = {"datasets": "jsonl", "reports": "json", "validations": "json", "banks": "json"}


def spec_from_document(document: dict) -> SourceSpec:
    """Rebuild a spec tree from its document form."""
    return read_spec(SourceSpec, document, "source spec")


def save_session(session: "ReproSession", directory: str | Path) -> Path:
    """Write a session's configuration, measured datasets and caches.

    Returns the directory path.  The directory (and parents) are created
    when missing; a session already saved there stays loadable until the
    new manifest replaces it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    generation = _saved_generation(directory) + 1

    def data_file(folder: str, position: int) -> str:
        return f"{folder}/{generation:04d}-{position:03d}.{_DATA_SUFFIXES[folder]}"

    # Every file lands atomically under a name the manifest on disk does not
    # use, and the manifest lands last; it additionally pins each data
    # file's identity (dataset header name, count and content digest,
    # document signature), so a mismatched file fails loudly on load.
    # A measured dataset whose file a load verified, or a save wrote, is
    # copied from that file while its bytes still match their pin and the
    # dataset keeps the name and length it had then.
    dataset_entries = []
    for position, (spec, dataset) in enumerate(session.cached_datasets().items()):
        entry = {"spec": spec_to_document(spec), "name": dataset.name, "count": len(dataset)}
        if not spec.inputs:
            relative = data_file("datasets", position)
            path = directory / relative
            file = session.dataset_file(spec)
            if file is not None and copy_pinned(file[0], file[1], path):
                digest = file[1]
            else:
                save_observations_atomic(dataset, path)
                digest = _file_digest(path)
            session.prime_dataset(spec, dataset, (path, digest))
            entry.update(file=relative, digest=digest)
        dataset_entries.append(entry)
    report_entries = [
        {"spec": spec_to_document(spec), "name": name} for spec, name in session.cached_reports()
    ]
    validation_entries = []
    for position, ((spec, name), validation) in enumerate(
        session.cached_validations().items()
    ):
        relative = data_file("validations", position)
        document = validation_to_document(validation)
        write_atomic(directory / relative, json.dumps(document))
        validation_entries.append(
            {
                "spec": spec_to_document(spec),
                "name": name,
                "file": relative,
                "signature": document["signature"],
            }
        )
    bank_entries = []
    for position, state in enumerate(session.validation_bank_states()):
        relative = data_file("banks", position)
        text, signature = bank_document_text(state)
        write_atomic(directory / relative, text)
        bank_entries.append(
            {
                "file": relative,
                "signature": signature,
                "vantage": state.get("vantage", {}).get("name"),
            }
        )
    manifest = {
        "version": SESSION_FORMAT_VERSION,
        "generation": generation,
        "config": dataclasses.asdict(session.config),
        "options": dataclasses.asdict(session.options),
        "datasets": dataset_entries,
        "reports": report_entries,
        "validations": validation_entries,
        "banks": bank_entries,
    }
    registry = session.cached_as_registry()
    if registry is not None:
        manifest["as_table"] = [
            [system.asn, system.name, system.role.value] for system in registry
        ]
    write_atomic(directory / SESSION_MANIFEST, json.dumps(manifest, indent=2))
    named = {
        entry["file"]
        for entries in (dataset_entries, validation_entries, bank_entries)
        for entry in entries
        if "file" in entry
    }
    for folder, suffix in _DATA_SUFFIXES.items():
        if not (directory / folder).is_dir():
            continue
        scheme = re.compile(rf"(?:\d+-)?\d+\.{suffix}")
        for path in (directory / folder).iterdir():
            if scheme.fullmatch(path.name) and f"{folder}/{path.name}" not in named:
                path.unlink(missing_ok=True)
    return directory


def _file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes: a dataset file's content pin."""
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def _optional(
    entry: dict, key: str, parse: Callable[[object], Parsed], field: str, where: str
) -> Parsed | None:
    """``entry[key]`` read with ``parse`` (a refusal names ``field.key``), or
    ``None`` when the entry has no ``key``."""
    if key not in entry:
        return None
    return read_field(entry[key], parse, f"{field}.{key}", where)


def _as_table(rows: object) -> AsRegistry:
    """The manifest's AS table: one ``[asn, name, role]`` row per AS.

    Each row must hold a positive integer ASN listed once, a string name
    and an :class:`AsRole` value; a wrong type raises ``TypeError`` or
    ``ValueError``, which the manifest reader wraps in its ``PersistError``.
    """
    if not isinstance(rows, list):
        raise PersistError(f"malformed session manifest: AS table {rows!r} is not a list")
    registry = AsRegistry()
    for row in rows:
        if not isinstance(row, list) or len(row) != 3:
            raise PersistError(
                f"malformed session manifest: AS table row {row!r} is not an [asn, name, role] list"
            )
        asn, name, role = json_integer(row[0]), json_string(row[1]), AsRole(json_string(row[2]))
        if asn <= 0 or asn in registry:
            raise PersistError(
                f"malformed session manifest: AS table row {row!r} has a non-positive or repeated ASN"
            )
        registry.add(AutonomousSystem(asn=asn, name=name, role=role))
    return registry


def _saved_generation(directory: Path) -> int:
    """The generation of the session saved in ``directory`` (0 for none).

    A manifest without a generation, or one that cannot be read, counts
    as 0: an unreadable manifest names no file a save must preserve.
    """
    try:
        manifest = read_json_document(directory / SESSION_MANIFEST, "session manifest")
        return int(manifest.get("generation", 0))
    except (PersistError, TypeError, ValueError):
        return 0


def _read_dataset(directory: Path, file: str, digest: str | None) -> ObservationDataset:
    """Load one dataset file, checked against the manifest's content pin.

    The file is read once: its bytes are hashed and compared with the pin,
    then parsed.  ``digest`` is ``None`` in sessions saved before datasets
    were pinned by content; they load on name and count alone.
    """
    try:
        return load_observations(directory / file, digest=digest)
    except PersistError:
        raise
    except DatasetError as exc:
        raise PersistError(f"dataset {file} is unreadable: {exc}") from exc


def _unsaved(session: "ReproSession", specs: Iterable[SourceSpec]) -> list[str]:
    """The specs among ``specs`` the loaded session does not hold yet."""
    loaded = session.cached_datasets()
    return [spec.describe() for spec in specs if spec not in loaded]


def _rebuild(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    """Rebuild a file-less combinator dataset from the datasets loaded so far.

    The save orders every combinator after its inputs, so they are all
    loaded by now; one that is missing would have to be measured, and a
    load never measures.
    """
    missing = _unsaved(session, spec.inputs)
    if not spec.inputs or missing:
        raise PersistError(
            f"dataset {spec.describe()} has no file and is not a combinator of the "
            f"datasets saved before it (missing: {', '.join(missing) or 'its inputs'})"
        )
    try:
        return session.dataset(spec)
    except (ReproError, ValueError) as exc:
        raise PersistError(f"dataset {spec.describe()} cannot be rebuilt: {exc}") from exc


def load_session(directory: str | Path) -> "ReproSession":
    """Rebuild a session from a saved directory, with its caches primed.

    Raises:
        PersistError: when the directory is not a saved session, the format
            version is unsupported, the manifest or one of its entries is
            malformed (an entry's file, name or digest that is not a
            string, or a dataset count that is not a non-negative integer,
            is named), an identifier option is not a boolean, an AS table
            row is not a positive unique ASN, a string name and a role, a
            dataset's observation count, header name or content digest
            differs from the manifest, an entry reads a dataset the
            manifest does not hold, or a validation or bank document fails
            verification.
    """
    from repro.api.session import ReproSession

    directory = Path(directory)
    manifest_path = directory / SESSION_MANIFEST
    if not manifest_path.exists():
        raise PersistError(f"{directory} is not a saved session (no {SESSION_MANIFEST})")
    manifest = read_json_document(manifest_path, "session manifest")
    where = f"session manifest {manifest_path}"
    try:
        version = manifest["version"]
        if version != SESSION_FORMAT_VERSION:
            raise PersistError(f"unsupported session format version {version!r}")
        config = read_scenario(manifest["config"], "config", where)
        options = read_identifier_options(manifest["options"], "session manifest")
        # A combinator dataset has no ``file`` (or a null one); a ``digest``
        # is absent in sessions saved before datasets were pinned by content.
        datasets = [
            (
                spec_from_document(entry["spec"]),
                None
                if entry.get("file") is None
                else read_field(entry["file"], json_string, f"datasets[{i}].file", where),
                _optional(entry, "name", json_string, f"datasets[{i}]", where),
                _optional(entry, "count", json_count, f"datasets[{i}]", where),
                _optional(entry, "digest", json_string, f"datasets[{i}]", where),
            )
            for i, entry in enumerate(manifest["datasets"])
        ]
        # Older saves also name a report document and its signature; the
        # report is resolved again, so neither is read.
        reports = [
            (
                spec_from_document(entry["spec"]),
                read_field(entry["name"], json_string, f"reports[{i}].name", where),
            )
            for i, entry in enumerate(manifest["reports"])
        ]
        # Absent in pre-validation-subsystem sessions; they load fine.
        validations = [
            (
                validator_spec_from_document(entry["spec"]),
                read_field(entry["name"], json_string, f"validations[{i}].name", where),
                read_field(entry["file"], json_string, f"validations[{i}].file", where),
                entry.get("signature"),
            )
            for i, entry in enumerate(manifest.get("validations", []))
        ]
        # Absent in pre-probe-budget sessions; they load fine too.
        banks = [
            (read_field(entry["file"], json_string, f"banks[{i}].file", where), entry.get("signature"))
            for i, entry in enumerate(manifest.get("banks", []))
        ]
        # Absent in sessions saved before the table was, or without a topology.
        as_table = _as_table(manifest["as_table"]) if "as_table" in manifest else None
    except PersistError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"malformed session manifest {manifest_path}: {exc}") from exc
    session = ReproSession(config, options)
    if as_table is not None:
        session.prime_as_registry(as_table)
    for spec, file, expected_name, expected_count, expected_digest in datasets:
        if file is None:
            where, dataset = spec.describe(), _rebuild(session, spec)
        else:
            where, dataset = file, _read_dataset(directory, file, expected_digest)
            # A save copies the file while its bytes match the pin.  A
            # headerless file names its dataset after its own path, so a
            # copy under another name would rename it: it is encoded.
            pinned = expected_digest is not None and dataset.name != Path(file).stem
            session.prime_dataset(
                spec, dataset, (directory / file, expected_digest) if pinned else None
            )
        if expected_name is not None and dataset.name != expected_name:
            raise PersistError(
                f"dataset {where} is named {dataset.name!r}, manifest "
                f"expects {expected_name!r}; the session was likely torn mid-save"
            )
        if expected_count is not None and len(dataset) != expected_count:
            raise PersistError(
                f"dataset {where} holds {len(dataset)} observations, "
                f"manifest expects {expected_count}"
            )
    for spec, name, file, signature in validations:
        document = read_pinned_document(directory / file, "validation document", signature, "session")
        session.prime_validation(spec, name, validation_from_document(document))
    for file, signature in banks:
        document = read_pinned_document(directory / file, "bank document", signature, "session")
        bank = IpidSampleBank.from_state(bank_state_from_document(document))
        # Validation probes from one vantage.  A bank of another, which only
        # a since-removed spec override made, is not restored, so the next
        # save drops it.
        if bank.vantage == VALIDATION_VANTAGE:
            session.prime_bank(bank)
    # Last, as resolving is the one costly step: every check above has passed.
    for spec, name in reports:
        missing = _unsaved(session, streamed_specs(spec))
        if missing:
            raise PersistError(
                f"report {name!r} reads datasets the session did not save "
                f"({', '.join(missing)}); a load does not measure"
            )
        session.report(spec, name)
    return session
