"""Single-pass resolution engine over a columnar, interned index.

The seed implementation of the pipeline walked the full observation list
once per (protocol × family) grouping plus once per protocol for dual-stack
inference — nine passes, each re-extracting identifiers.  This module
replaces that with a two-stage architecture:

1. **One index pass** — :class:`ObservationIndex` streams over the
   observations exactly once, reads each observation's identifier value
   exactly once (:func:`~repro.core.identifiers.identifier_value`, which
   builds no :class:`~repro.core.identifiers.DeviceIdentifier`), and
   buckets addresses by ``(protocol, family, identifier value)`` (plus the
   per-bucket address→ASN mapping).
2. **Derived collections** — per-protocol alias-set collections, dual-stack
   collections, and the cross-protocol unions are all materialised from the
   index without re-touching raw observations.

Internally the index is *columnar and interned*: addresses and identifier
values are interned to dense integers through two per-index
:class:`~repro.core.symbols.SymbolTable`\\ s, buckets are addressed by a flat
``protocol × family`` code, per-bucket membership is integer-keyed
reference counts, and the per-address ASN columns are flat :mod:`array`
columns indexed by address symbol, grown by doubling.  An address's family
is resolved once at intern time and read back as an array cell afterwards.
The public surface — ``add`` / ``remove`` / ``extend`` /
``state_signature`` and insertion-ordered enumeration — is unchanged from
the dict core (now preserved as
:class:`repro.core.dictcore.DictObservationIndex`, the property-test
oracle), so the engine, longitudinal delta replay, persistence and
validation layers run unmodified on top.
An index is never serialised: checkpoints store observations and rebuild
the index from them (:mod:`repro.persist.stream`).

:class:`ResolutionEngine` orchestrates the two stages and assembles the
:class:`AliasReport` consumed by the experiments, the CLI and the analysis
layer: ``ResolutionEngine(options).resolve(observations)`` is the one-call
API, and :meth:`ResolutionEngine.report` is the one derivation of a report
from an index — a batch resolve, every longitudinal emit over the live
index (:mod:`repro.longitudinal.engine`) and a checkpoint resume all run
it.  Its outputs match the seed implementation's apart from the
cross-protocol union labels, which are now canonical (ordered by smallest
member address) instead of union-find-root ordered.
"""

from __future__ import annotations

import dataclasses
from array import array
from itertools import compress
from typing import Iterable

from repro import obs
from repro.core.alias_resolution import AliasResolver
from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet, union_dual_stack
from repro.core.identifiers import DEFAULT_OPTIONS, IdentifierOptions, identifier_value
from repro.core.symbols import SymbolTable
from repro.errors import DatasetError
from repro.net.addresses import AddressFamily, family_of
from repro.simnet.device import ServiceType
from repro.sources.records import MAX_ASN, Observation

#: Protocols the paper's evaluation reports on, in report order.
PROTOCOLS = (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3)

#: Bucket key: one (protocol, family) stratum of the index.
_BucketKey = tuple[ServiceType, AddressFamily]

# Flat bucket codes: protocol_code * 2 + family_code.
_SERVICES = tuple(ServiceType)
_FAMILIES = (AddressFamily.IPV4, AddressFamily.IPV6)
_PROTO_CODE: dict[ServiceType, int] = {
    service: code for code, service in enumerate(_SERVICES)
}
_FAMILY_CODE: dict[AddressFamily, int] = {
    family: code for code, family in enumerate(_FAMILIES)
}
_BUCKET_KEYS: tuple[_BucketKey, ...] = tuple(
    (service, family) for service in _SERVICES for family in _FAMILIES
)
_BUCKET_COUNT = len(_BUCKET_KEYS)


def _bucket_code(protocol: ServiceType, family: AddressFamily) -> int:
    return _PROTO_CODE[protocol] * 2 + _FAMILY_CODE[family]


class _Bucket:
    """Columnar storage of one ``(protocol, family)`` stratum.

    ``members`` maps identifier symbol → {address symbol: refcount}; the ASN
    columns are flat arrays indexed by address symbol (``asn_refs[sym] == 0``
    means "no ASN recorded"), grown on demand to at least double their
    length, so they hold at most twice the interned addresses.  ``asn_cache``
    memoises the decoded address→ASN dict between mutations.
    """

    __slots__ = ("members", "asn_values", "asn_refs", "asn_cache")

    def __init__(self) -> None:
        self.members: dict[int, dict[int, int]] = {}
        self.asn_values = array("q")
        self.asn_refs = array("q")
        self.asn_cache: dict[str, int] | None = None

    def grow_asn(self, size: int) -> None:
        """Cover address symbols below ``size``, at least doubling the columns."""
        missing = max(size, 2 * len(self.asn_refs)) - len(self.asn_refs)
        zeros = bytes(8 * missing)
        self.asn_refs.frombytes(zeros)
        self.asn_values.frombytes(zeros)


class ObservationIndex:
    """Identifier-keyed index built in one streaming pass over observations.

    Within each ``(protocol, family)`` bucket, addresses are grouped by the
    identifier value extracted from their observations; insertion order (the
    first occurrence of each identifier in the stream) is preserved so the
    derived collections enumerate sets in the same order the seed
    implementation did.  Each identifier value is computed by the
    observation's protocol's extractor, so bucketing by that protocol and
    keying on the value alone is equivalent to keying on the full
    ``(protocol, value)`` identifier pair, with no
    :class:`~repro.core.identifiers.DeviceIdentifier` built per observation.

    Addresses are reference-counted per identifier so the index supports
    removal: :meth:`remove` is the exact inverse of :meth:`add`, which is
    what lets the longitudinal subsystem re-resolve a churned snapshot by
    replaying an observation delta instead of rebuilding the whole index.

    Removal assumes an address's origin ASN is stable across the
    observations that mention it (true for every source in this repo: the
    ASN is resolved from routing data keyed by address).  The index only
    counts how many identifier-carrying observations supplied an ASN per
    address, so conflicting ASN values for one address cannot be unwound
    exactly.

    Storage is columnar and interned — see the module docstring.  The two
    symbol tables (:attr:`addresses`, :attr:`identifiers`) are per-index.
    """

    def __init__(self, options: IdentifierOptions = DEFAULT_OPTIONS) -> None:
        self._options = options
        self._addresses = SymbolTable()
        self._identifiers = SymbolTable()
        #: family code per address symbol, resolved once at intern time.
        self._family_codes = array("b")
        self._buckets: list[_Bucket | None] = [None] * _BUCKET_COUNT
        self._observed = 0
        self._indexed = 0

    @classmethod
    def build(
        cls,
        observations: Iterable[Observation],
        options: IdentifierOptions = DEFAULT_OPTIONS,
    ) -> "ObservationIndex":
        """Index every observation of ``observations`` (streamed, not copied)."""
        index = cls(options)
        index.extend(observations)
        return index

    @property
    def options(self) -> IdentifierOptions:
        """The identifier construction options in use."""
        return self._options

    @property
    def observed(self) -> int:
        """Observations seen, including those without identifier material."""
        return self._observed

    @property
    def indexed(self) -> int:
        """Observations that contributed an identifier to the index."""
        return self._indexed

    @property
    def address_symbols(self) -> int:
        """Distinct addresses interned by this index."""
        return len(self._addresses)

    @property
    def identifier_symbols(self) -> int:
        """Distinct identifier values interned by this index."""
        return len(self._identifiers)

    def _intern_address(self, address: str) -> int:
        """Intern ``address``, resolving its family code exactly once."""
        sym = self._addresses.intern(address)
        if sym == len(self._family_codes):
            self._family_codes.append(_FAMILY_CODE[family_of(address)])
        return sym

    def add(self, observation: Observation) -> bool:
        """Index one observation; returns whether it carried an identifier.

        Raises :class:`~repro.errors.DatasetError`, changing nothing, when
        the observation's ASN is not a 32-bit AS number (an integer, not a
        boolean, in ``0..MAX_ASN``).
        """
        asn = observation.asn
        if asn is not None and (type(asn) is not int or not 0 <= asn <= MAX_ASN):
            raise DatasetError(
                f"cannot index observation {observation.address}: "
                f"asn {asn} is not a 32-bit AS number"
            )
        self._observed += 1
        value = identifier_value(observation, self._options)
        if value is None:
            return False
        address = observation.address
        addr_sym = self._addresses.ids.get(address)
        if addr_sym is None:
            addr_sym = self._intern_address(address)
        code = (
            _PROTO_CODE[observation.protocol] * 2
            + self._family_codes[addr_sym]
        )
        bucket = self._buckets[code]
        if bucket is None:
            bucket = self._buckets[code] = _Bucket()
        ident_sym = self._identifiers.intern(value)
        members = bucket.members
        counts = members.get(ident_sym)
        if counts is None:
            members[ident_sym] = {addr_sym: 1}
        else:
            counts[addr_sym] = counts.get(addr_sym, 0) + 1
        if asn is not None:
            refs = bucket.asn_refs
            if addr_sym >= len(refs):
                bucket.grow_asn(len(self._addresses))
            bucket.asn_values[addr_sym] = asn
            refs[addr_sym] += 1
            bucket.asn_cache = None
        self._indexed += 1
        return True

    def remove(self, observation: Observation) -> bool:
        """Un-index one previously-added observation (exact inverse of :meth:`add`).

        Returns whether the observation carried an identifier (mirroring
        :meth:`add`'s return value for the same observation).  Raises
        :class:`~repro.errors.DatasetError` when the observation was never
        indexed — incremental drivers replay deltas, so an unknown removal
        is a bookkeeping bug worth failing loudly on — or carries an ASN
        :meth:`add` refuses.  Extraction is deterministic, so re-extracting
        finds exactly what :meth:`add` indexed.
        """
        asn = observation.asn
        if asn is not None and (type(asn) is not int or not 0 <= asn <= MAX_ASN):
            raise DatasetError(
                f"cannot remove observation {observation.address}: "
                f"asn {asn} is not a 32-bit AS number"
            )
        value = identifier_value(observation, self._options)
        if value is None:
            # Identifier-less observations are only counted in aggregate, so
            # the strongest possible check is that one is outstanding at all.
            if self._observed <= self._indexed:
                raise DatasetError(
                    "cannot remove identifier-less observation: none outstanding"
                )
            self._observed -= 1
            return False
        addr_sym = self._addresses.ids.get(observation.address)
        ident_sym = self._identifiers.ids.get(value)
        bucket = counts = count = None
        if addr_sym is not None and ident_sym is not None:
            code = (
                _PROTO_CODE[observation.protocol] * 2
                + self._family_codes[addr_sym]
            )
            bucket = self._buckets[code]
            if bucket is not None:
                counts = bucket.members.get(ident_sym)
                if counts is not None:
                    count = counts.get(addr_sym)
        if count is None:
            raise DatasetError(
                f"cannot remove unindexed observation {observation.address} "
                f"({observation.protocol.value}, {observation.family.value})"
            )
        if count == 1:
            del counts[addr_sym]
            if not counts:
                del bucket.members[ident_sym]
        else:
            counts[addr_sym] = count - 1
        if asn is not None:
            refs = bucket.asn_refs
            remaining = (refs[addr_sym] if addr_sym < len(refs) else 0) - 1
            if remaining < 0:
                raise DatasetError(
                    f"ASN bookkeeping underflow for {observation.address}: removed "
                    "an ASN-carrying observation that was never added"
                )
            refs[addr_sym] = remaining
            bucket.asn_cache = None
        self._observed -= 1
        self._indexed -= 1
        return True

    def publish_gauges(self) -> None:
        """Publish the symbol-table level gauges.

        Called at batch seams only (never per observation): after an
        ``extend`` and after a longitudinal delta replay, so the enabled
        cost stays a handful of dict operations per batch, and the
        disabled cost is one boolean check.
        """
        if not obs.is_enabled():
            return
        obs.set_gauge("index.symbols.interned", len(self._addresses), kind="address")
        obs.set_gauge(
            "index.symbols.interned", len(self._identifiers), kind="identifier"
        )

    def extend(self, observations: Iterable[Observation]) -> None:
        """Index many observations."""
        add = self.add
        if not obs.is_enabled():
            for observation in observations:
                add(observation)
            return
        observed_before, indexed_before = self._observed, self._indexed
        for observation in observations:
            add(observation)
        obs.add("index.observations.observed", self._observed - observed_before)
        obs.add("index.observations.indexed", self._indexed - indexed_before)
        self.publish_gauges()

    def bucket_asn(self, protocol: ServiceType, family: AddressFamily) -> dict[str, int]:
        """Address→ASN mapping of one bucket.

        Materialised from the ASN columns on demand and memoised until the
        bucket's next ASN mutation; treat as read-only.
        """
        bucket = self._buckets[_bucket_code(protocol, family)]
        if bucket is None:
            return {}
        cache = bucket.asn_cache
        if cache is None:
            addr_values = self._addresses.values
            refs = bucket.asn_refs
            values = bucket.asn_values
            # compress skips the unreferenced cells, the doubling's spare
            # ones among them, in C.
            cache = bucket.asn_cache = {
                addr_values[sym]: values[sym]
                for sym in compress(range(len(refs)), refs)
            }
        return cache

    def state_signature(self) -> dict:
        """Canonical, order-insensitive rendering of the index contents.

        Two indexes that would derive identical collections produce equal
        signatures, regardless of the insertion/removal history that built
        them.  Empty buckets and identifiers are dropped, so an index that
        shrank matches a from-scratch build of the surviving observations.
        """
        ident_values = self._identifiers.values
        addr_values = self._addresses.values
        members: dict = {}
        asn: dict = {}
        for code, bucket in enumerate(self._buckets):
            if bucket is None:
                continue
            key = _BUCKET_KEYS[code]
            cleaned = {
                ident_values[ident_sym]: {
                    addr_values[sym]: count for sym, count in counts.items()
                }
                for ident_sym, counts in bucket.members.items()
                if counts
            }
            if cleaned:
                members[key] = cleaned
            bucket_asn = self.bucket_asn(*key)
            if bucket_asn:
                asn[key] = dict(bucket_asn)
        return {
            "observed": self._observed,
            "indexed": self._indexed,
            "members": members,
            "asn": asn,
        }

    def stats(self) -> dict:
        """Build statistics for diagnostics (``repro resolve --stats``)."""
        buckets = {}
        for code, bucket in enumerate(self._buckets):
            if bucket is None or not bucket.members:
                continue
            protocol, family = _BUCKET_KEYS[code]
            buckets[f"{protocol.value}:{family.value}"] = {
                "identifiers": len(bucket.members),
                "member_cells": sum(len(counts) for counts in bucket.members.values()),
            }
        return {
            "observed": self._observed,
            "indexed": self._indexed,
            "address_symbols": len(self._addresses),
            "identifier_symbols": len(self._identifiers),
            "buckets": buckets,
        }

    def alias_sets(
        self,
        protocol: ServiceType,
        family: AddressFamily,
        name: str | None = None,
    ) -> AliasSetCollection:
        """The ``(protocol, family)`` alias-set collection, from the index."""
        collection = AliasSetCollection(
            name or f"{protocol.value}:{family.value}",
            address_asn=self.bucket_asn(protocol, family),
        )
        bucket = self._buckets[_bucket_code(protocol, family)]
        if bucket is None:
            return collection
        ident_values = self._identifiers.values
        decode_address = self._addresses.values.__getitem__
        protocols = frozenset((protocol,))
        add = collection.add
        for ident_sym, counts in bucket.members.items():
            add(
                AliasSet(
                    identifier=ident_values[ident_sym],
                    addresses=frozenset(map(decode_address, counts)),
                    protocols=protocols,
                )
            )
        return collection

    def dual_stack(
        self, protocol: ServiceType, name: str | None = None
    ) -> DualStackCollection:
        """Dual-stack sets for ``protocol``: identifiers seen in both families."""
        ipv4_bucket = self._buckets[_bucket_code(protocol, AddressFamily.IPV4)]
        ipv6_bucket = self._buckets[_bucket_code(protocol, AddressFamily.IPV6)]
        address_asn = dict(self.bucket_asn(protocol, AddressFamily.IPV4))
        address_asn.update(self.bucket_asn(protocol, AddressFamily.IPV6))
        collection = DualStackCollection(
            name or protocol.value, address_asn=address_asn
        )
        if ipv4_bucket is None or ipv6_bucket is None:
            return collection
        ident_values = self._identifiers.values
        decode_address = self._addresses.values.__getitem__
        protocols = frozenset((protocol,))
        ipv6_members = ipv6_bucket.members
        for ident_sym, ipv4_counts in ipv4_bucket.members.items():
            ipv6_counts = ipv6_members.get(ident_sym)
            if not ipv6_counts:
                continue
            collection.add(
                DualStackSet(
                    identifier=ident_values[ident_sym],
                    ipv4_addresses=frozenset(map(decode_address, ipv4_counts)),
                    ipv6_addresses=frozenset(map(decode_address, ipv6_counts)),
                    protocols=protocols,
                )
            )
        return collection


@dataclasses.dataclass
class AliasReport:
    """Full output of one alias-resolution run.

    Attributes:
        name: label of the observation set the report was built from.
        ipv4: per-protocol IPv4 alias-set collections.
        ipv6: per-protocol IPv6 alias-set collections.
        ipv4_union: union of the per-protocol IPv4 collections.
        ipv6_union: union of the per-protocol IPv6 collections.
        dual_stack: per-protocol dual-stack collections.
        dual_stack_union: union of the per-protocol dual-stack collections.
    """

    name: str
    ipv4: dict[ServiceType, AliasSetCollection]
    ipv6: dict[ServiceType, AliasSetCollection]
    ipv4_union: AliasSetCollection
    ipv6_union: AliasSetCollection
    dual_stack: dict[ServiceType, DualStackCollection]
    dual_stack_union: DualStackCollection

    def non_singleton_counts(self, family: AddressFamily) -> dict[str, int]:
        """Number of non-singleton sets per protocol plus the union."""
        collections = self.ipv4 if family is AddressFamily.IPV4 else self.ipv6
        union = self.ipv4_union if family is AddressFamily.IPV4 else self.ipv6_union
        counts = {protocol.value: len(collections[protocol].non_singleton()) for protocol in PROTOCOLS}
        counts["union"] = len(union.non_singleton())
        return counts

    def covered_addresses(self, family: AddressFamily) -> dict[str, int]:
        """Number of addresses covered by non-singleton sets per protocol plus union."""
        collections = self.ipv4 if family is AddressFamily.IPV4 else self.ipv6
        union = self.ipv4_union if family is AddressFamily.IPV4 else self.ipv6_union
        counts = {
            protocol.value: len(collections[protocol].non_singleton().addresses())
            for protocol in PROTOCOLS
        }
        counts["union"] = len(union.non_singleton().addresses())
        return counts


def assemble_report(
    name: str,
    ipv4: dict[ServiceType, AliasSetCollection],
    ipv6: dict[ServiceType, AliasSetCollection],
    dual_stack: dict[ServiceType, DualStackCollection],
) -> AliasReport:
    """Build the cross-protocol unions and assemble an :class:`AliasReport`.

    :meth:`ResolutionEngine.report` hands it the per-protocol collections
    it derived from an index.
    """
    ipv4_union = AliasResolver.union(ipv4.values(), name=f"{name}:union:ipv4")
    ipv6_union = AliasResolver.union(ipv6.values(), name=f"{name}:union:ipv6")
    dual_union = union_dual_stack(dual_stack.values(), name=f"{name}:union:dual")
    return AliasReport(
        name=name,
        ipv4=ipv4,
        ipv6=ipv6,
        ipv4_union=ipv4_union,
        ipv6_union=ipv6_union,
        dual_stack=dual_stack,
        dual_stack_union=dual_union,
    )


def _collection_signature(collection: AliasSetCollection) -> dict:
    return {
        alias_set.identifier: (alias_set.addresses, alias_set.protocols)
        for alias_set in collection
    }


def _dual_signature(collection: DualStackCollection) -> dict:
    return {
        dual_set.identifier: (
            dual_set.ipv4_addresses,
            dual_set.ipv6_addresses,
            dual_set.protocols,
        )
        for dual_set in collection
    }


def report_signature(report: AliasReport) -> dict:
    """Canonical, order-insensitive rendering of an :class:`AliasReport`.

    A report derived from a live index that replayed deltas enumerates
    identifiers in index insertion order, which differs from the
    first-occurrence order of a from-scratch stream even when the derived
    sets are identical.  Comparing signatures
    instead of collection lists makes report parity an exact equality.
    The synthetic ``union:<smallest-address>`` labels are already canonical,
    so union collections compare label-for-label.
    """
    return {
        "name": report.name,
        "ipv4": {p.value: _collection_signature(c) for p, c in report.ipv4.items()},
        "ipv6": {p.value: _collection_signature(c) for p, c in report.ipv6.items()},
        "ipv4_union": _collection_signature(report.ipv4_union),
        "ipv6_union": _collection_signature(report.ipv6_union),
        "ipv4_union_asn": report.ipv4_union.address_asn,
        "ipv6_union_asn": report.ipv6_union.address_asn,
        "dual_stack": {p.value: _dual_signature(c) for p, c in report.dual_stack.items()},
        "dual_stack_union": _dual_signature(report.dual_stack_union),
    }


class ResolutionEngine:
    """Builds :class:`AliasReport` objects from one index pass.

    ``resolve`` is the one-call entry point; ``index``/``report`` expose the
    two stages separately for callers that want to reuse or inspect the
    intermediate :class:`ObservationIndex` (e.g. the longitudinal engine,
    which derives every emit's report from its live index).
    """

    def __init__(self, options: IdentifierOptions = DEFAULT_OPTIONS) -> None:
        self._options = options

    @property
    def options(self) -> IdentifierOptions:
        """The identifier construction options in use."""
        return self._options

    def index(self, observations: Iterable[Observation]) -> ObservationIndex:
        """Stage 1: build the observation index in a single pass."""
        with obs.span("engine.index"):
            return ObservationIndex.build(observations, self._options)

    def report(self, index: ObservationIndex, name: str = "dataset") -> AliasReport:
        """Stage 2: derive every report collection from an existing index."""
        with obs.span("engine.report", name=name):
            return self._report(index, name)

    def _report(self, index: ObservationIndex, name: str) -> AliasReport:
        ipv4 = {
            protocol: index.alias_sets(
                protocol, AddressFamily.IPV4, name=f"{name}:{protocol.value}:ipv4"
            )
            for protocol in PROTOCOLS
        }
        ipv6 = {
            protocol: index.alias_sets(
                protocol, AddressFamily.IPV6, name=f"{name}:{protocol.value}:ipv6"
            )
            for protocol in PROTOCOLS
        }
        dual = {
            protocol: index.dual_stack(protocol, name=f"{name}:{protocol.value}:dual")
            for protocol in PROTOCOLS
        }
        return assemble_report(name, ipv4, ipv6, dual)

    def resolve(
        self, observations: Iterable[Observation], name: str = "dataset"
    ) -> AliasReport:
        """Index ``observations`` and build the full report."""
        return self.report(self.index(observations), name=name)
