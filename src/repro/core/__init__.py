"""Core contribution: protocol-centric alias resolution and dual-stack inference.

This package implements the paper's technique proper:

* :mod:`repro.core.identifiers` — turn a service observation into a
  host-wide identifier (SSH banner + algorithm capabilities + host key;
  BGP OPEN fields; SNMPv3 engine ID).
* :mod:`repro.core.aliasset` — alias-set data structures.
* :mod:`repro.core.alias_resolution` — group addresses by identifier and
  union the per-protocol results over :class:`IntUnionFind`, the one
  union-find (the IPID techniques' corroboration loop runs on it too).
* :mod:`repro.core.dual_stack` — merge IPv4 and IPv6 groups sharing an
  identifier into dual-stack sets.
* :mod:`repro.core.validation` — cross-protocol partition comparison and
  ground-truth scoring.
* :mod:`repro.core.engine` — the single-pass resolution engine: one
  :class:`~repro.core.engine.ObservationIndex` pass extracts each
  identifier exactly once, then per-protocol collections, cross-protocol
  unions and dual-stack collections are all derived from the index;
  ``ResolutionEngine(options).resolve(observations)`` produces everything
  the paper's evaluation reports.
"""

from repro.core.alias_resolution import AliasResolver, IntUnionFind
from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet, union_dual_stack
from repro.core.engine import AliasReport, ObservationIndex, ResolutionEngine
from repro.core.identifiers import (
    DeviceIdentifier,
    IdentifierOptions,
    bgp_identifier,
    count_extractions,
    extract_identifier,
    snmp_identifier,
    ssh_identifier,
)
from repro.core.validation import ValidationResult, cross_validate

__all__ = [
    "AliasResolver",
    "IntUnionFind",
    "ObservationIndex",
    "ResolutionEngine",
    "AliasSet",
    "AliasSetCollection",
    "DualStackCollection",
    "DualStackSet",
    "union_dual_stack",
    "DeviceIdentifier",
    "IdentifierOptions",
    "bgp_identifier",
    "count_extractions",
    "extract_identifier",
    "snmp_identifier",
    "ssh_identifier",
    "AliasReport",
    "ValidationResult",
    "cross_validate",
]
