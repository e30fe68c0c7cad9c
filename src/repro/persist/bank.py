"""Serialisation of :class:`~repro.validation.bank.IpidSampleBank` state.

A bank document carries everything an
:class:`~repro.validation.bank.IpidSampleBank` memoised: the vantage
identity, the probe accounting, every banked estimation series and
interleaved pair collection (with full sample points and simulated
timestamps), the schedule-agnostic pair map and the canonical estimation
index.  Each document embeds a SHA-256 digest of its canonical content,
recomputed and verified on load — the same discipline as
:mod:`repro.persist.validation` — so a corrupted or hand-edited bank file
cannot silently change which probes a restored session believes it
already issued.  A save writes the document with
:func:`bank_document_text`, whose ``state`` is the canonical text the
signature hashes, so the state is encoded once per save; the reader
parses any JSON layout of the same document.

Restoring a bank is what makes reloaded sessions probe-free: a validation
spec whose schedule matches the saved run's is answered entirely from the
restored series — zero network probes — which
``tests/persist/test_bank_persist.py`` asserts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import PersistError

#: Current bank document format version.
BANK_FORMAT_VERSION = 1

#: The keys a bank state dictionary must carry (see
#: :meth:`~repro.validation.bank.IpidSampleBank.export_state`).
_REQUIRED_KEYS = (
    "vantage",
    "probes_issued",
    "probes_reused",
    "series",
    "interleaved",
    "pairs",
    "estimation",
)


def _canonical(state: dict[str, Any]) -> str:
    """The canonical JSON rendering of a bank state: what its signature hashes."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _signature(canonical: str) -> str:
    """SHA-256 of a bank state's canonical rendering."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def bank_state_signature(state: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON rendering of a bank state."""
    return _signature(_canonical(state))


def bank_document_text(state: dict[str, Any]) -> tuple[str, str]:
    """A bank state's signed, versioned document as file text, and its signature.

    ``state`` is encoded once: the document's ``state`` is the canonical
    rendering the signature hashes, written as it was hashed.
    """
    canonical = _canonical(state)
    signature = _signature(canonical)
    text = (
        f'{{"version": {BANK_FORMAT_VERSION}, "state": {canonical}, '
        f'"signature": "{signature}"}}'
    )
    return text, signature


def bank_state_to_document(state: dict[str, Any]) -> dict[str, Any]:
    """Render an exported bank state as a signed, versioned document.

    The document is the text :func:`bank_document_text` writes, parsed.
    """
    document: dict[str, Any] = json.loads(bank_document_text(state)[0])
    return document


def bank_state_from_document(document: dict[str, Any]) -> dict[str, Any]:
    """Extract and verify a bank state from its document form.

    Raises:
        PersistError: on an unsupported version, a malformed document, or
            a state whose signature differs from the saved digest.
    """
    try:
        version = document["version"]
        if version != BANK_FORMAT_VERSION:
            raise PersistError(f"unsupported bank document version {version!r}")
        state = document["state"]
        expected = document["signature"]
    except PersistError:
        raise
    except (KeyError, TypeError) as exc:
        raise PersistError(f"malformed bank document: {exc}") from exc
    if not isinstance(state, dict):
        raise PersistError("malformed bank document: state is not an object")
    missing = [key for key in _REQUIRED_KEYS if key not in state]
    if missing:
        raise PersistError(f"malformed bank document: state lacks {missing}")
    actual = bank_state_signature(state)
    if actual != expected:
        raise PersistError(
            "bank document failed signature parity on load "
            f"(saved {str(expected)[:12]}…, restored {actual[:12]}…)"
        )
    return state
