"""Observation and alias-set deltas between measurement snapshots.

Two diff layers feed the longitudinal pipeline:

* :func:`diff_observations` compares consecutive snapshots of the same
  measurement and splits them into added/removed observation lists — the
  input of incremental re-resolution.  Observations are keyed by their
  resolution-relevant content (address, protocol, port, identifier fields,
  ASN); the timestamp and source label are ignored, since re-observing the
  same service with the same identity a week later changes nothing about
  alias resolution.
* :func:`diff_alias_sets` compares the resolved alias sets of consecutive
  snapshots and classifies every change as born, dissolved, grown, shrunk
  or migrated — the vocabulary in which the paper's churn-driven
  MIDAR-vs-SSH disagreement becomes measurable.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.core.aliasset import AliasSet
from repro.simnet.device import ServiceType
from repro.sources.records import Observation

@dataclasses.dataclass(frozen=True)
class ObservationDelta:
    """The observation-level difference between two snapshots.

    Attributes:
        added: observations present in the newer snapshot only.
        removed: observations present in the older snapshot only (the
            original objects, so replaying the removal un-indexes exactly
            what was indexed).
        unchanged: number of observations whose content appears in both
            snapshots (multiset semantics: two copies in both count twice).
    """

    added: tuple[Observation, ...]
    removed: tuple[Observation, ...]
    unchanged: int

    @property
    def is_empty(self) -> bool:
        """Whether the snapshots are resolution-equivalent."""
        return not self.added and not self.removed


def diff_observations(
    previous: Iterable[Observation], current: Iterable[Observation]
) -> ObservationDelta:
    """Split two observation snapshots into an add/remove delta.

    Multiset-exact: if a content key occurs twice before and once after,
    one of the older copies is emitted as removed.  Replaying ``removed``
    then ``added`` against an index of ``previous`` yields an index equal
    to one built from ``current`` (see
    :meth:`repro.longitudinal.engine.LongitudinalEngine.stage`).

    Observations are bucketed by the cheap ``(address, protocol)`` pair
    first; the expensive identifier-field comparison happens only within a
    bucket, and the overwhelmingly common one-observation-per-bucket case
    is a single tuple comparison instead of a full content-key hash.
    """
    previous_by_service: dict[tuple[str, ServiceType], list[Observation]] = {}
    for observation in previous:
        previous_by_service.setdefault(
            (observation.address, observation.protocol), []
        ).append(observation)
    current_by_service: dict[tuple[str, ServiceType], list[Observation]] = {}
    for observation in current:
        current_by_service.setdefault(
            (observation.address, observation.protocol), []
        ).append(observation)

    added: list[Observation] = []
    removed: list[Observation] = []
    unchanged = 0
    for key, copies in current_by_service.items():
        befores = previous_by_service.get(key)
        if befores is None:
            added.extend(copies)
            continue
        if len(copies) == 1 and len(befores) == 1:
            after, before = copies[0], befores[0]
            if (
                after.port == before.port
                and after.fields == before.fields
                and after.asn == before.asn
            ):
                unchanged += 1
            else:
                added.append(after)
                removed.append(before)
            continue
        # Rare: several observations of one (address, protocol) — fall back
        # to exact multiset accounting on the remaining content fields.
        previous_by_content: dict[tuple, list[Observation]] = {}
        for observation in befores:
            previous_by_content.setdefault(
                (observation.port, observation.fields, observation.asn), []
            ).append(observation)
        current_by_content: dict[tuple, list[Observation]] = {}
        for observation in copies:
            current_by_content.setdefault(
                (observation.port, observation.fields, observation.asn), []
            ).append(observation)
        for content, content_copies in current_by_content.items():
            before_count = len(previous_by_content.get(content, ()))
            unchanged += min(before_count, len(content_copies))
            if len(content_copies) > before_count:
                added.extend(content_copies[before_count:])
        for content, content_copies in previous_by_content.items():
            after_count = len(current_by_content.get(content, ()))
            if len(content_copies) > after_count:
                removed.extend(content_copies[after_count:])
    for key, befores in previous_by_service.items():
        if key not in current_by_service:
            removed.extend(befores)
    return ObservationDelta(added=tuple(added), removed=tuple(removed), unchanged=unchanged)


@dataclasses.dataclass(frozen=True)
class AliasDelta:
    """Set-level changes between two resolved snapshots.

    Every entry is the address-frozenset of an alias set.  ``born``,
    ``grown``, ``shrunk`` and ``migrated`` describe sets of the *newer*
    snapshot; ``dissolved``, ``split_origins`` and ``disrupted_previous``
    describe sets of the *older* one.

    Attributes:
        name: label of the compared collection pair.
        born: new sets sharing no address with any previous set.
        dissolved: previous sets sharing no address with any current set.
        grown: current sets that gained addresses (or merged previous
            sets) without losing any.
        shrunk: current sets that lost addresses without gaining any.
        migrated: current sets that both gained and lost addresses — an
            address moved between devices, the paper's churn mechanism.
        unchanged: number of sets surviving with identical membership.
        split_origins: previous sets whose surviving addresses are spread
            over two or more current sets.
        disrupted_previous: previous sets that did not survive identically
            (the complement of ``unchanged`` on the older side).
    """

    name: str
    born: tuple[frozenset[str], ...]
    dissolved: tuple[frozenset[str], ...]
    grown: tuple[frozenset[str], ...]
    shrunk: tuple[frozenset[str], ...]
    migrated: tuple[frozenset[str], ...]
    unchanged: int
    split_origins: tuple[frozenset[str], ...]
    disrupted_previous: tuple[frozenset[str], ...]

    @property
    def changed(self) -> int:
        """Number of current-side sets that differ from every previous set."""
        return len(self.born) + len(self.grown) + len(self.shrunk) + len(self.migrated)

    @property
    def persistence(self) -> float:
        """Fraction of previous sets surviving with identical membership."""
        total = self.unchanged + len(self.disrupted_previous)
        if total == 0:
            return 1.0
        return self.unchanged / total

    def counts(self) -> dict[str, int]:
        """Per-category counts, for tables and logs."""
        return {
            "born": len(self.born),
            "dissolved": len(self.dissolved),
            "grown": len(self.grown),
            "shrunk": len(self.shrunk),
            "migrated": len(self.migrated),
            "unchanged": self.unchanged,
            "splits": len(self.split_origins),
        }


def diff_alias_sets(
    previous: Iterable[AliasSet], current: Iterable[AliasSet], name: str = "delta"
) -> AliasDelta:
    """Classify how alias sets evolved between two snapshots.

    Designed for union collections, whose sets partition the covered
    addresses (an address belongs to at most one set per snapshot).  A
    current set is matched to every previous set it shares an address
    with; relative to the union of its matches it either only gained
    (grown — covers pure merges), only lost (shrunk — covers split
    fragments), or both (migrated).

    The partition property implies a changed set can only overlap changed
    sets of the other snapshot (an overlap with an unchanged set would put
    one address in two sets of the same snapshot), so matching is
    restricted to the changed sets on both sides — with few-percent churn
    that skips building ownership maps for the ~80% of sets that survive
    untouched.
    """
    previous_sets = [frozenset(alias_set.addresses) for alias_set in previous]
    current_sets = [frozenset(alias_set.addresses) for alias_set in current]
    previous_exact = set(previous_sets)
    current_exact = set(current_sets)
    changed_previous = [s for s in previous_sets if s not in current_exact]
    changed_current = [s for s in current_sets if s not in previous_exact]
    unchanged = len(current_sets) - len(changed_current)

    previous_owner: dict[str, int] = {}
    for index, addresses in enumerate(changed_previous):
        for address in addresses:
            previous_owner[address] = index
    current_owner: dict[str, int] = {}
    for index, addresses in enumerate(changed_current):
        for address in addresses:
            current_owner[address] = index

    born: list[frozenset[str]] = []
    grown: list[frozenset[str]] = []
    shrunk: list[frozenset[str]] = []
    migrated: list[frozenset[str]] = []
    for addresses in changed_current:
        matches = {previous_owner[a] for a in addresses if a in previous_owner}
        if not matches:
            born.append(addresses)
            continue
        matched_addresses = frozenset().union(*(changed_previous[m] for m in matches))
        gained = addresses - matched_addresses
        lost = matched_addresses - addresses
        if gained and lost:
            migrated.append(addresses)
        elif lost:
            shrunk.append(addresses)
        else:
            # Gained addresses, merged several previous sets, or both.
            grown.append(addresses)

    dissolved: list[frozenset[str]] = []
    split_origins: list[frozenset[str]] = []
    disrupted: list[frozenset[str]] = []
    for addresses in changed_previous:
        disrupted.append(addresses)
        destinations = {current_owner[a] for a in addresses if a in current_owner}
        if not destinations:
            dissolved.append(addresses)
        elif len(destinations) > 1:
            split_origins.append(addresses)
    return AliasDelta(
        name=name,
        born=tuple(born),
        dissolved=tuple(dissolved),
        grown=tuple(grown),
        shrunk=tuple(shrunk),
        migrated=tuple(migrated),
        unchanged=unchanged,
        split_origins=tuple(split_origins),
        disrupted_previous=tuple(disrupted),
    )
