"""Incremental re-resolution over a stream of snapshot deltas.

A :class:`LongitudinalEngine` owns one
:class:`~repro.core.engine.ObservationIndex` across the whole measurement
campaign.  The stream (:mod:`repro.stream.engine`) stages every synced
scan's observation delta on the index (:meth:`LongitudinalEngine.stage`:
removals are exact inverses of additions, per-address reference counts
make that safe) and derives a report at every emit
(:meth:`LongitudinalEngine.derive`), re-deriving only what the staged
deltas touched:

* identifier extraction is cached across snapshots by observation content,
  so replaying a delta never re-extracts an identifier the campaign has
  already seen;
* per-``(protocol, family)`` alias-set collections are rebuilt from the
  index, but every :class:`~repro.core.aliasset.AliasSet` whose membership
  the delta did not change is *reused by object identity* — no frozenset
  is reconstructed for the ~99% of identifiers a few-percent churn leaves
  alone;
* dual-stack collections are maintained the same way, an identifier being
  dirty when either family's bucket touched it;
* the cross-protocol unions (both family unions and the dual-stack union)
  are maintained component-wise: only components touching an address of a
  changed set are dissolved and re-merged, everything else — output set
  objects included — is carried over by reference.  The churn-stable
  ``union:<smallest-address>`` labels (see
  :meth:`~repro.core.alias_resolution.AliasResolver.union`) make the
  carried-over components exactly what a from-scratch union would emit;
* the merged address→ASN mappings of the union collections are updated
  only for the addresses the delta touched.

The incremental report is exactly comparable to a from-scratch
:meth:`~repro.core.engine.ResolutionEngine.resolve` of the snapshot — see
:func:`~repro.core.engine.report_signature`, which the longitudinal
tests assert on every snapshot.  That parity contract sets the
remaining cost floor: every snapshot still materialises fresh collection
objects (set lists and copied ASN mappings embed the snapshot name), so a
delta replay is linear in the index size with a small constant rather
than linear in the delta — dropping that floor means relaxing the
report-object contract (the ROADMAP's streaming-mode follow-on).

The result of each derivation is the full
:class:`~repro.core.engine.AliasReport` plus per-family
:class:`~repro.longitudinal.delta.AliasDelta` objects describing how the
non-singleton union sets evolved.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.core.alias_resolution import combine_alias_sets, merge_overlapping
from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet, combine_dual_sets
from repro.core.engine import (
    PROTOCOLS,
    AliasReport,
    ObservationIndex,
)
from repro.core.identifiers import (
    DEFAULT_OPTIONS,
    DeviceIdentifier,
    IdentifierOptions,
    extract_identifier,
)
from repro.longitudinal.delta import AliasDelta, diff_alias_sets, observation_key
from repro.net.addresses import AddressFamily
from repro.simnet.device import ServiceType
from repro.sources.records import Observation

_FAMILIES = (AddressFamily.IPV4, AddressFamily.IPV6)
_BucketKey = tuple[ServiceType, AddressFamily]

#: Sentinel distinguishing "not cached" from a cached ``None`` identifier.
_MISSING: DeviceIdentifier = object()  # type: ignore[assignment]

#: One membership change of a per-protocol set, as seen by a union:
#: (protocol, identifier value, old set or None, new set or None).
_SetChange = tuple[ServiceType, str, object, object]


@dataclasses.dataclass(frozen=True)
class IncrementalResolution:
    """Output of one longitudinal step.

    Attributes:
        report: the full alias report of the new snapshot.
        ipv4_delta: evolution of the non-singleton IPv4 union sets.
        ipv6_delta: evolution of the non-singleton IPv6 union sets.
    """

    report: AliasReport
    ipv4_delta: AliasDelta
    ipv6_delta: AliasDelta


class _IncrementalUnionBase:
    """A cross-protocol union maintained component-wise across deltas.

    Components are keyed by their canonical ``union:<smallest-address>``
    label.  An update dissolves exactly the components that share an
    address with a changed per-protocol set (old or new membership) and
    re-merges the surviving member sets together with the changed sets;
    every other component — output set object included — is carried over
    by reference.  Subclasses define how a member set's addresses are
    read and how a component's output set is built.
    """

    __slots__ = ("_components", "_component_addresses", "_component_members", "_address_component")

    def __init__(self) -> None:
        #: label -> output set of the component.
        self._components: dict[str, object] = {}
        #: label -> every address of the component (for dissolving).
        self._component_addresses: dict[str, frozenset[str]] = {}
        #: label -> member set keys (protocol, identifier value).
        self._component_members: dict[str, tuple[tuple[ServiceType, str], ...]] = {}
        #: address -> label of the owning component.
        self._address_component: dict[str, str] = {}

    def _addresses_of(self, member) -> frozenset[str]:
        raise NotImplementedError

    def _build_component(self, component) -> tuple[object, frozenset[str], str]:
        """Return (output set, combined addresses, label) of one component."""
        raise NotImplementedError

    def update(
        self,
        changes: list[_SetChange],
        current_sets: dict[ServiceType, dict[str, object]],
    ) -> None:
        """Re-merge the union region affected by ``changes``."""
        if not changes:
            return
        affected_addresses: set[str] = set()
        remerge_keys: set[tuple[ServiceType, str]] = set()
        for protocol, value, old, new in changes:
            if old is not None:
                affected_addresses |= self._addresses_of(old)
            if new is not None:
                affected_addresses |= self._addresses_of(new)
                remerge_keys.add((protocol, value))
        affected_labels = {
            self._address_component[address]
            for address in affected_addresses
            if address in self._address_component
        }
        for label in affected_labels:
            del self._components[label]
            for address in self._component_addresses.pop(label):
                self._address_component.pop(address, None)
            remerge_keys.update(self._component_members.pop(label))

        members = []
        for key in remerge_keys:
            protocol, value = key
            member = current_sets[protocol].get(value)
            if member is not None:
                members.append((key, member))
        for component in merge_overlapping(
            members, lambda member: self._addresses_of(member[1])
        ):
            output, addresses, label = self._build_component(component)
            self._components[label] = output
            self._component_addresses[label] = addresses
            self._component_members[label] = tuple(key for key, _ in component)
            for address in addresses:
                self._address_component[address] = label

    def _ordered_sets(self) -> list:
        """The component output sets in canonical label order."""
        return [self._components[label] for label in sorted(self._components)]


class _IncrementalAliasUnion(_IncrementalUnionBase):
    """Family union over :class:`AliasSet` members."""

    __slots__ = ()

    def _addresses_of(self, member: AliasSet) -> frozenset[str]:
        return member.addresses

    def _build_component(self, component):
        output = combine_alias_sets([alias_set for _, alias_set in component])
        return output, output.addresses, output.identifier

    def collection(self, name: str, address_asn: dict[str, int]) -> AliasSetCollection:
        """Materialise the union as a collection (canonical label order)."""
        return AliasSetCollection(name, sets=self._ordered_sets(), address_asn=address_asn)


class _IncrementalDualUnion(_IncrementalUnionBase):
    """Dual-stack union over :class:`DualStackSet` members."""

    __slots__ = ()

    def _addresses_of(self, member: DualStackSet) -> frozenset[str]:
        return member.ipv4_addresses | member.ipv6_addresses

    def _build_component(self, component):
        output = combine_dual_sets([dual_set for _, dual_set in component])
        return output, output.ipv4_addresses | output.ipv6_addresses, output.identifier

    def collection(self, name: str, address_asn: dict[str, int]) -> DualStackCollection:
        """Materialise the union as a collection (canonical label order)."""
        return DualStackCollection(name, sets=self._ordered_sets(), address_asn=address_asn)


class LongitudinalEngine:
    """Maintains an alias-resolution report across churning snapshots."""

    def __init__(self, options: IdentifierOptions = DEFAULT_OPTIONS) -> None:
        self._options = options
        self._index = ObservationIndex(options)
        self._alias_cache: dict[_BucketKey, dict[str, AliasSet]] = {
            (protocol, family): {} for protocol in PROTOCOLS for family in _FAMILIES
        }
        self._dual_cache: dict[ServiceType, dict[str, DualStackSet]] = {
            protocol: {} for protocol in PROTOCOLS
        }
        self._unions: dict[AddressFamily, _IncrementalAliasUnion] = {
            family: _IncrementalAliasUnion() for family in _FAMILIES
        }
        self._dual_union = _IncrementalDualUnion()
        # Merged address→ASN mappings, maintained for touched addresses only:
        # one per family union, one per protocol's dual collection, one for
        # the dual-stack union.
        self._union_asn: dict[AddressFamily, dict[str, int]] = {
            family: {} for family in _FAMILIES
        }
        self._dual_asn: dict[ServiceType, dict[str, int]] = {
            protocol: {} for protocol in PROTOCOLS
        }
        self._dual_union_asn: dict[str, int] = {}
        #: observation content key -> extracted identifier (or None); lets a
        #: delta replay skip re-extraction for observations seen before.
        self._identifiers: dict[tuple, DeviceIdentifier | None] = {}
        self._previous: AliasReport | None = None
        # Non-singleton union sets of the previous snapshot, kept as plain
        # lists so the per-snapshot alias diff does not rebuild filtered
        # collections (and copy their ASN mappings) twice per family.
        self._previous_non_singleton: dict[AddressFamily, list[AliasSet]] = {
            family: [] for family in _FAMILIES
        }

    @property
    def options(self) -> IdentifierOptions:
        """The identifier construction options in use."""
        return self._options

    @property
    def index(self) -> ObservationIndex:
        """The live observation index (shared across snapshots)."""
        return self._index

    @property
    def report(self) -> AliasReport | None:
        """The most recent snapshot's report, if any."""
        return self._previous

    @classmethod
    def restore(cls, index: ObservationIndex, name: str) -> "LongitudinalEngine":
        """Rebuild an engine around a restored index (checkpoint resume).

        ``index`` must have every identifier marked dirty (what a fresh
        :meth:`~repro.core.engine.ObservationIndex.build` guarantees), so
        the refresh below derives every collection, union component and
        merged ASN mapping exactly as the original engine held them after
        resolving the snapshot called ``name``.  The engine's identifier
        cache starts empty — the first delta replay re-extracts what it
        touches and re-populates it — and the next :meth:`stage` and
        :meth:`derive` continue from ``name`` as if the process had never
        exited.
        """
        engine = cls(index.options)
        engine._index = index
        engine._refresh(name)
        return engine

    def stage(
        self,
        removed: Iterable[Observation],
        added: Iterable[Observation],
    ) -> None:
        """Replay an observation delta against the index without deriving.

        The streaming engine stages each synced scan's delta and pays for
        collection derivation when it emits (:meth:`derive`).  Removals
        replay before additions so an identifier whose membership merely
        rotates passes through a consistent intermediate state.
        """
        identifiers = self._identifiers
        for observation in removed:
            # pop, not get: evicting on removal keeps the cache bounded by
            # the live index plus the current delta instead of growing with
            # every content key the campaign has ever seen.  A duplicate
            # copy or a returning observation just re-extracts once.
            identifier = identifiers.pop(observation_key(observation), _MISSING)
            if identifier is _MISSING:
                identifier = extract_identifier(observation, self._options)
            self._index.remove(observation, identifier)
        for observation in added:
            self._add(observation)

    def derive(self, name: str) -> IncrementalResolution:
        """Derive the report of everything staged since the last derivation.

        The first derivation is the bootstrap, a plain full build; later
        ones re-derive only what the staged deltas dirtied.
        """
        return self._refresh(name)

    def _add(self, observation: Observation) -> None:
        key = observation_key(observation)
        identifier = self._identifiers.get(key, _MISSING)
        if identifier is _MISSING:
            identifier = extract_identifier(observation, self._options)
            self._identifiers[key] = identifier
        self._index.add(observation, identifier)

    # ------------------------------------------------------------------ #
    # Derivation with per-identifier reuse
    # ------------------------------------------------------------------ #
    def _alias_collection(
        self,
        protocol: ServiceType,
        family: AddressFamily,
        dirty: set[str] | None,
        name: str,
        changes: list[_SetChange],
        touched_addresses: set[str],
    ) -> AliasSetCollection:
        members = self._index.bucket_members(protocol, family)
        cache = self._alias_cache[(protocol, family)]
        if dirty:
            protocols = frozenset((protocol,))
            for value in dirty:
                old = cache.get(value)
                addresses = members.get(value)
                if addresses is None:
                    new = None
                    cache.pop(value, None)
                else:
                    new = AliasSet(
                        identifier=value,
                        addresses=frozenset(addresses),
                        protocols=protocols,
                    )
                if old is not None:
                    touched_addresses |= old.addresses
                if new is not None:
                    touched_addresses |= new.addresses
                    if old is not None and old.addresses == new.addresses:
                        # Membership rotated back (e.g. a reference count
                        # changed): keep the old object so the unions see
                        # no change at all.
                        continue
                    cache[value] = new
                if old is not None or new is not None:
                    changes.append((protocol, value, old, new))
        return AliasSetCollection(
            name,
            sets=[cache[value] for value in members],
            address_asn=self._index.bucket_asn(protocol, family),
        )

    def _dual_collection(
        self,
        protocol: ServiceType,
        dirty: set[str],
        name: str,
        changes: list[_SetChange],
    ) -> DualStackCollection:
        ipv4_members = self._index.bucket_members(protocol, AddressFamily.IPV4)
        ipv6_members = self._index.bucket_members(protocol, AddressFamily.IPV6)
        cache = self._dual_cache[protocol]
        if dirty:
            protocols = frozenset((protocol,))
            for value in dirty:
                old = cache.get(value)
                ipv4_addresses = ipv4_members.get(value)
                ipv6_addresses = ipv6_members.get(value)
                if ipv4_addresses and ipv6_addresses:
                    new = DualStackSet(
                        identifier=value,
                        ipv4_addresses=frozenset(ipv4_addresses),
                        ipv6_addresses=frozenset(ipv6_addresses),
                        protocols=protocols,
                    )
                    if (
                        old is not None
                        and old.ipv4_addresses == new.ipv4_addresses
                        and old.ipv6_addresses == new.ipv6_addresses
                    ):
                        continue
                    cache[value] = new
                else:
                    new = None
                    cache.pop(value, None)
                if old is not None or new is not None:
                    changes.append((protocol, value, old, new))
        return DualStackCollection(
            name,
            sets=[cache[value] for value in ipv4_members if value in cache],
            address_asn=self._dual_asn[protocol],
        )

    @staticmethod
    def _refresh_merged_asn(
        merged: dict[str, int],
        buckets: list[dict[str, int]],
        touched_addresses: set[str],
        bootstrap: bool,
    ) -> None:
        """Maintain a merged ASN mapping (later buckets win, as dict.update).

        On bootstrap the buckets are folded wholesale; afterwards only the
        touched addresses are re-resolved against the buckets.
        """
        if bootstrap:
            for bucket in buckets:
                merged.update(bucket)
            return
        for address in touched_addresses:
            value = None
            for bucket in buckets:
                bucket_value = bucket.get(address)
                if bucket_value is not None:
                    value = bucket_value
            if value is None:
                merged.pop(address, None)
            else:
                merged[address] = value

    def _refresh(self, name: str) -> IncrementalResolution:
        index = self._index
        bootstrap = self._previous is None
        dirty = index.consume_dirty()
        changes: dict[AddressFamily, list[_SetChange]] = {f: [] for f in _FAMILIES}
        touched: dict[_BucketKey, set[str]] = {}
        collections: dict[AddressFamily, dict[ServiceType, AliasSetCollection]] = {}
        for family in _FAMILIES:
            family_tag = family.value
            collections[family] = {}
            for protocol in PROTOCOLS:
                bucket_touched = touched[(protocol, family)] = set()
                collections[family][protocol] = self._alias_collection(
                    protocol,
                    family,
                    dirty.get((protocol, family)),
                    f"{name}:{protocol.value}:{family_tag}",
                    changes[family],
                    bucket_touched,
                )

        dual = {}
        dual_changes: list[_SetChange] = []
        for protocol in PROTOCOLS:
            dual_dirty: set[str] = set()
            protocol_touched: set[str] = set()
            for family in _FAMILIES:
                dual_dirty |= dirty.get((protocol, family), set())
                protocol_touched |= touched[(protocol, family)]
            self._refresh_merged_asn(
                self._dual_asn[protocol],
                [index.bucket_asn(protocol, family) for family in _FAMILIES],
                protocol_touched,
                bootstrap,
            )
            dual[protocol] = self._dual_collection(
                protocol, dual_dirty, f"{name}:{protocol.value}:dual", dual_changes
            )

        unions: dict[AddressFamily, AliasSetCollection] = {}
        for family in _FAMILIES:
            family_tag = family.value
            family_touched: set[str] = set()
            for protocol in PROTOCOLS:
                family_touched |= touched[(protocol, family)]
            self._refresh_merged_asn(
                self._union_asn[family],
                [index.bucket_asn(protocol, family) for protocol in PROTOCOLS],
                family_touched,
                bootstrap,
            )
            self._unions[family].update(
                changes[family],
                {protocol: self._alias_cache[(protocol, family)] for protocol in PROTOCOLS},
            )
            unions[family] = self._unions[family].collection(
                f"{name}:union:{family_tag}", self._union_asn[family]
            )

        all_touched: set[str] = set()
        for bucket_touched in touched.values():
            all_touched |= bucket_touched
        self._refresh_merged_asn(
            self._dual_union_asn,
            [self._dual_asn[protocol] for protocol in PROTOCOLS],
            all_touched,
            bootstrap,
        )
        self._dual_union.update(dual_changes, self._dual_cache)
        dual_union = self._dual_union.collection(
            f"{name}:union:dual", self._dual_union_asn
        )

        report = AliasReport(
            name=name,
            ipv4=collections[AddressFamily.IPV4],
            ipv6=collections[AddressFamily.IPV6],
            ipv4_union=unions[AddressFamily.IPV4],
            ipv6_union=unions[AddressFamily.IPV6],
            dual_stack=dual,
            dual_stack_union=dual_union,
        )

        current_ipv4 = [s for s in report.ipv4_union if not s.is_singleton]
        current_ipv6 = [s for s in report.ipv6_union if not s.is_singleton]
        ipv4_delta = diff_alias_sets(
            self._previous_non_singleton[AddressFamily.IPV4],
            current_ipv4,
            name=f"{name}:ipv4",
        )
        ipv6_delta = diff_alias_sets(
            self._previous_non_singleton[AddressFamily.IPV6],
            current_ipv6,
            name=f"{name}:ipv6",
        )
        self._previous = report
        self._previous_non_singleton[AddressFamily.IPV4] = current_ipv4
        self._previous_non_singleton[AddressFamily.IPV6] = current_ipv6
        return IncrementalResolution(
            report=report, ipv4_delta=ipv4_delta, ipv6_delta=ipv6_delta
        )
