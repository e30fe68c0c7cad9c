"""A content digest of an :class:`~repro.core.engine.AliasReport`.

A saved session stores no report: every report is a pure function of the
session's datasets and identifier options, so a load resolves it again
(:mod:`repro.persist.session`).  What remains here is
:func:`report_signature_digest`, a SHA-256 over the report's canonical
:func:`~repro.core.engine.report_signature`, which compares reports
across processes without shipping them.
"""

from __future__ import annotations

import enum
import hashlib
import json

from repro.core.engine import AliasReport, report_signature


def _canonical(value: object) -> object:
    """Render report-signature structures as canonical JSON-compatible data."""
    if isinstance(value, dict):
        return {
            (key.value if isinstance(key, enum.Enum) else str(key)): _canonical(item)
            for key, item in value.items()
        }
    if isinstance(value, (frozenset, set)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def report_signature_digest(report: AliasReport) -> str:
    """SHA-256 over the canonical JSON rendering of a report signature."""
    canonical = _canonical(report_signature(report))
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
