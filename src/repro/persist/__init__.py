"""Persistence and resume: sessions, poll-loop checkpoints.

The paper's longitudinal analysis compares snapshots and alias-set reports
across collection runs, which assumes measurement state survives the
process that produced it.  This package provides that survival on top of
the byte-faithful observation round-trip of :mod:`repro.io`:

* :mod:`repro.persist.session` — ``ReproSession.save(dir)`` /
  ``ReproSession.load(dir)``: configuration, the measured datasets and
  the validation caches.  Merged datasets and alias reports are pure
  functions of those and the identifier options, so a load rebuilds
  them instead of reading a stored copy.
* :mod:`repro.persist.report` — :func:`report_signature_digest`, a
  content digest that compares reports across processes.
* :mod:`repro.persist.validation` — :class:`~repro.validation.report.
  ValidationReport` documents (per-set verdicts plus the declarative
  validator spec), signature-verified and type-checked on load.
* :mod:`repro.persist.stream` — the poll loop's checkpoints, one writer
  and one loader for ``repro longitudinal`` (stop after snapshot *k*,
  resume to *k+n*) and ``repro serve`` (``--checkpoint/--resume``).  A
  checkpoint holds one generation: the last poll's observations and a
  manifest, under a manifest link swapped on last.  A resume rebuilds the
  live :class:`~repro.core.engine.ObservationIndex` from those
  observations, checks it against the manifest's
  :func:`state_signature_digest` pin, and regenerates the rest
  deterministically.
* :mod:`repro.persist.bank` — validation sample-bank documents
  (:meth:`~repro.validation.bank.IpidSampleBank.export_state`),
  signature-verified on load; what lets a reloaded session re-score
  cached validation schedules with zero network probes.

Every artifact embeds a digest of its canonical state, or its manifest
pins one, and loading fails loudly (:class:`~repro.errors.PersistError`)
when what was restored would not derive the same reports as what was
saved.
"""

from repro.persist.bank import (
    bank_state_from_document,
    bank_state_signature,
    bank_state_to_document,
)
from repro.persist.files import spec_to_document
from repro.persist.report import report_signature_digest
from repro.persist.session import load_session, save_session, spec_from_document
from repro.persist.stream import state_signature_digest
from repro.persist.validation import (
    validation_from_document,
    validation_signature_digest,
    validation_to_document,
    validator_spec_from_document,
)

__all__ = [
    "bank_state_from_document",
    "bank_state_signature",
    "bank_state_to_document",
    "load_session",
    "report_signature_digest",
    "save_session",
    "spec_from_document",
    "spec_to_document",
    "state_signature_digest",
    "validation_from_document",
    "validation_signature_digest",
    "validation_to_document",
    "validator_spec_from_document",
]
