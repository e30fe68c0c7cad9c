"""Serialisation of :class:`~repro.validation.report.ValidationReport` objects.

A validation document carries the declarative
:class:`~repro.validation.spec.ValidatorSpec` tree the report was built
from, every per-set verdict (candidate, partition, diagnostic classes,
probing window) and the probe accounting.  Each document embeds a SHA-256
digest of the report's canonical content, recomputed and verified on load,
so a corrupted or hand-edited validation file cannot silently skew a
restored session's Table 2.  The reader also checks every value's JSON
type, so a re-signed forgery that names addresses by numbers, or states a
verdict as a string, fails the load instead of being coerced.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import PersistError
from repro.jsonvalues import json_boolean, json_count, json_number, json_string
from repro.persist.files import read_spec, spec_to_document
from repro.validation.report import SetVerdict, ValidationReport
from repro.validation.spec import ValidatorSpec

#: Current validation document format version.
VALIDATION_FORMAT_VERSION = 1


def validator_spec_from_document(document: dict) -> ValidatorSpec:
    """Rebuild a validator spec tree from its document form."""
    return read_spec(ValidatorSpec, document, "validator spec")


def _verdict_to_document(verdict: SetVerdict) -> dict:
    return {
        "candidate": sorted(verdict.candidate),
        "testable": verdict.testable,
        "agrees": verdict.agrees,
        "partition": [sorted(group) for group in verdict.partition],
        "classes": [[address, label] for address, label in verdict.classes],
        "started_at": verdict.started_at,
        "finished_at": verdict.finished_at,
    }


def _list(value: object) -> list:
    if not isinstance(value, list):
        raise PersistError(f"malformed validation document: {value!r} is not a list")
    return value


def _strings(value: object) -> list[str]:
    return [json_string(item) for item in _list(value)]


def _class(value: object) -> tuple[str, str]:
    pair = _strings(value)
    if len(pair) != 2:
        raise PersistError(
            f"malformed validation document: class {value!r} is not an [address, label] pair"
        )
    return pair[0], pair[1]


def _verdict_from_document(document: dict) -> SetVerdict:
    return SetVerdict(
        candidate=frozenset(_strings(document["candidate"])),
        testable=json_boolean(document["testable"]),
        agrees=json_boolean(document["agrees"]),
        partition=tuple(frozenset(_strings(group)) for group in _list(document["partition"])),
        classes=tuple(_class(pair) for pair in _list(document["classes"])),
        started_at=json_number(document["started_at"]),
        finished_at=json_number(document["finished_at"]),
    )


def _canonical_content(report: ValidationReport) -> dict:
    """The signed content: everything except the spec (pinned separately)."""
    return {
        "validator": report.validator,
        "candidates": report.candidates,
        "verdicts": [_verdict_to_document(verdict) for verdict in report.verdicts],
        "probes_issued": report.probes_issued,
        "probes_reused": report.probes_reused,
        "started_at": report.started_at,
        "finished_at": report.finished_at,
    }


def validation_signature_digest(report: ValidationReport) -> str:
    """SHA-256 over the canonical JSON rendering of a validation report."""
    encoded = json.dumps(_canonical_content(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def validation_to_document(report: ValidationReport) -> dict:
    """Render a validation report as a JSON-serialisable document.

    The embedded ``signature`` digest covers the report contents, not the
    document bytes, so it verifies the reconstructed object on load.
    """
    document = _canonical_content(report)
    document["version"] = VALIDATION_FORMAT_VERSION
    document["spec"] = spec_to_document(report.spec)
    document["signature"] = validation_signature_digest(report)
    return document


def validation_from_document(document: dict) -> ValidationReport:
    """Rebuild a validation report, asserting signature parity.

    Raises:
        PersistError: on an unsupported version, a malformed document (a
            missing entry, or a value of the wrong JSON type: candidates and
            partition groups are lists of strings, ``testable`` and
            ``agrees`` booleans, classes ``[string, string]`` pairs, every
            timestamp a finite number, and the three counts non-negative
            integers), or a restored report whose signature differs from
            the saved digest.
    """
    try:
        version = document["version"]
        if version != VALIDATION_FORMAT_VERSION:
            raise PersistError(f"unsupported validation document version {version!r}")
        report = ValidationReport(
            validator=json_string(document["validator"]),
            spec=validator_spec_from_document(document["spec"]),
            candidates=json_count(document["candidates"]),
            verdicts=tuple(
                _verdict_from_document(entry) for entry in _list(document["verdicts"])
            ),
            probes_issued=json_count(document["probes_issued"]),
            probes_reused=json_count(document["probes_reused"]),
            started_at=json_number(document["started_at"]),
            finished_at=json_number(document["finished_at"]),
        )
        expected = document["signature"]
    except PersistError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise PersistError(f"malformed validation document: {exc}") from exc
    actual = validation_signature_digest(report)
    if actual != expected:
        raise PersistError(
            "validation document failed signature parity on load "
            f"(saved {str(expected)[:12]}…, restored {actual[:12]}…)"
        )
    return report
