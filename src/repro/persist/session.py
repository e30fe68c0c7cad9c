"""Persist and restore a :class:`~repro.api.session.ReproSession`.

A saved session is a directory:

* ``session.json`` — manifest: format version, the save's generation,
  the :class:`~repro.api.config.ScenarioConfig`, the identifier options,
  and one entry per cached dataset and report (each carrying its
  declarative :class:`~repro.api.sources.SourceSpec` tree).
* ``datasets/GGGG-PPP.jsonl`` — one JSON-lines file per cached dataset
  (the byte-faithful observation round-trip of :mod:`repro.io.datasets`),
  pinned by the SHA-256 digest of its bytes.
* ``reports/GGGG-PPP.json`` — one document per cached report
  (:mod:`repro.persist.report`), signature-verified on load.
* ``validations/GGGG-PPP.json`` — one document per cached validation
  report (:mod:`repro.persist.validation`), signature-verified on load.
* ``banks/GGGG-PPP.json`` — one document per validation sample bank
  (:mod:`repro.persist.bank`), signature-verified on load; a reloaded
  session re-scores matching validation schedules from these with zero
  network probes.

``GGGG`` is the save's generation, one above the manifest it replaces (a
manifest without one counts as 0), and ``PPP`` the entry's position.  A
save never overwrites a file the manifest on disk names, and the manifest
lands last, so a save over an existing session that dies at any write
leaves the previous session loadable.  Once the new manifest has landed,
the data files of earlier saves — numbered, or the unnumbered ``PPP``
names older saves used — are pruned; other files are left alone.

``load_session`` rebuilds the session with both caches primed: a source
that was collected before the save never re-runs, and a report that was
resolved before the save never re-resolves — while anything *not* cached
is rebuilt lazily from the session's (deterministic) configuration, so a
restored session composes exactly like the live one did.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING

from repro.api.config import ScenarioConfig
from repro.api.sources import SourceSpec
from repro.core.identifiers import IdentifierOptions
from repro.errors import DatasetError, PersistError
from repro.io.datasets import load_observations
from repro.persist.bank import bank_state_from_document, bank_state_to_document
from repro.persist.files import (
    read_json_document,
    read_pinned_document,
    read_spec,
    save_observations_atomic,
    write_atomic,
)
from repro.persist.report import report_from_document, report_to_document
from repro.persist.validation import (
    validation_from_document,
    validation_to_document,
    validator_spec_from_document,
    validator_spec_to_document,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.api.session import ReproSession

#: Current session directory format version.
SESSION_FORMAT_VERSION = 1

#: Manifest file name inside a session directory.
SESSION_MANIFEST = "session.json"

#: The data directories of a session and the suffix of their files.
_DATA_SUFFIXES = {"datasets": "jsonl", "reports": "json", "validations": "json", "banks": "json"}


def spec_to_document(spec: SourceSpec) -> dict:
    """Render a spec tree as a JSON-serialisable document."""
    return {
        "kind": spec.kind,
        "params": [[key, value] for key, value in spec.params],
        "inputs": [spec_to_document(input_spec) for input_spec in spec.inputs],
        "label": spec.label,
    }


def spec_from_document(document: dict) -> SourceSpec:
    """Rebuild a spec tree from its document form."""
    return read_spec(SourceSpec, document, "source spec")


def save_session(session: "ReproSession", directory: str | Path) -> Path:
    """Write a session's configuration and caches to ``directory``.

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
    # report signature digest), so a mismatched file fails loudly on load.
    dataset_entries = []
    for position, (spec, dataset) in enumerate(session.cached_datasets().items()):
        relative = data_file("datasets", position)
        count = save_observations_atomic(dataset, directory / relative)
        dataset_entries.append(
            {
                "spec": spec_to_document(spec),
                "file": relative,
                "name": dataset.name,
                "count": count,
                "digest": _file_digest(directory / relative),
            }
        )
    report_entries = []
    for position, ((spec, name), report) in enumerate(session.cached_reports().items()):
        relative = data_file("reports", position)
        document = report_to_document(report)
        write_atomic(directory / relative, json.dumps(document))
        report_entries.append(
            {
                "spec": spec_to_document(spec),
                "name": name,
                "file": relative,
                "signature": document["signature"],
            }
        )
    validation_entries = []
    for position, ((spec, name), validation) in enumerate(
        session.cached_validations().items()
    ):
        relative = data_file("validations", position)
        document = validation_to_document(validation)
        write_atomic(directory / relative, json.dumps(document))
        validation_entries.append(
            {
                "spec": validator_spec_to_document(spec),
                "name": name,
                "file": relative,
                "signature": document["signature"],
            }
        )
    bank_entries = []
    for position, state in enumerate(session.validation_bank_states()):
        relative = data_file("banks", position)
        document = bank_state_to_document(state)
        write_atomic(directory / relative, json.dumps(document))
        bank_entries.append(
            {
                "file": relative,
                "signature": document["signature"],
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
    write_atomic(directory / SESSION_MANIFEST, json.dumps(manifest, indent=2))
    named = {
        entry["file"]
        for entries in (dataset_entries, report_entries, validation_entries, bank_entries)
        for entry in entries
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


def _name(value: object) -> str:
    """A manifest entry's cache name, which must be a string."""
    if not isinstance(value, str):
        raise PersistError(f"malformed session manifest: entry name {value!r} is not a string")
    return value


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


def load_session(directory: str | Path) -> "ReproSession":
    """Rebuild a session from a saved directory, with both caches primed.

    Raises:
        PersistError: when the directory is not a saved session, the format
            version is unsupported, the manifest or one of its entries is
            malformed, a dataset's observation count, header name or content
            digest differs from the manifest, or a report fails signature
            verification.
    """
    from repro.api.session import ReproSession

    directory = Path(directory)
    manifest_path = directory / SESSION_MANIFEST
    if not manifest_path.exists():
        raise PersistError(f"{directory} is not a saved session (no {SESSION_MANIFEST})")
    manifest = read_json_document(manifest_path, "session manifest")
    try:
        version = manifest["version"]
        if version != SESSION_FORMAT_VERSION:
            raise PersistError(f"unsupported session format version {version!r}")
        config = ScenarioConfig(**manifest["config"])
        options = IdentifierOptions(**manifest["options"])
        # ``digest`` is absent in sessions saved before datasets were
        # pinned by content; they load on name and count alone.
        datasets = [
            (
                spec_from_document(entry["spec"]),
                str(entry["file"]),
                entry.get("name"),
                entry.get("count"),
                entry.get("digest"),
            )
            for entry in manifest["datasets"]
        ]
        reports = [
            (spec_from_document(entry["spec"]), _name(entry["name"]), str(entry["file"]), entry.get("signature"))
            for entry in manifest["reports"]
        ]
        # Absent in pre-validation-subsystem sessions; they load fine.
        validations = [
            (
                validator_spec_from_document(entry["spec"]),
                _name(entry["name"]),
                str(entry["file"]),
                entry.get("signature"),
            )
            for entry in manifest.get("validations", [])
        ]
        # Absent in pre-probe-budget sessions; they load fine too.
        banks = [(str(entry["file"]), entry.get("signature")) for entry in manifest.get("banks", [])]
    except PersistError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"malformed session manifest {manifest_path}: {exc}") from exc
    session = ReproSession(config, options)
    for spec, file, expected_name, expected_count, expected_digest in datasets:
        try:
            dataset = load_observations(directory / file)
        except PersistError:
            raise
        except DatasetError as exc:
            raise PersistError(f"dataset {file} is unreadable: {exc}") from exc
        if expected_digest is not None:
            digest = _file_digest(directory / file)
            if digest != expected_digest:
                raise PersistError(
                    f"dataset {file} does not match the session manifest's content digest "
                    f"(manifest {str(expected_digest)[:12]}…, file {digest[:12]}…)"
                )
        if expected_name is not None and dataset.name != expected_name:
            raise PersistError(
                f"dataset {file} is named {dataset.name!r}, manifest "
                f"expects {expected_name!r}; the session was likely torn mid-save"
            )
        if expected_count is not None and len(dataset) != expected_count:
            raise PersistError(
                f"dataset {file} holds {len(dataset)} observations, "
                f"manifest expects {expected_count}"
            )
        session.prime_dataset(spec, dataset)
    for spec, name, file, signature in reports:
        document = read_pinned_document(directory / file, "report document", signature, "session")
        session.prime_report(spec, name, report_from_document(document))
    for spec, name, file, signature in validations:
        document = read_pinned_document(directory / file, "validation document", signature, "session")
        session.prime_validation(spec, name, validation_from_document(document))
    for file, signature in banks:
        document = read_pinned_document(directory / file, "bank document", signature, "session")
        session.prime_bank_state(bank_state_from_document(document))
    return session
