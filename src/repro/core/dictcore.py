"""Reference dict-backed observation index (the pre-columnar core).

This is the ``ObservationIndex`` implementation the engine shipped before
the columnar re-core: plain dicts-of-dicts of Python strings, one nested
mapping per ``(protocol, family)`` bucket.  It is kept, unmodified in
behaviour, as a correctness oracle: the hypothesis property suite
(``tests/core/test_columnar_properties.py``) drives random
add/remove/extend sequences against both cores and asserts identical
derived reports and state signatures.

It intentionally shares no storage code with :mod:`repro.core.engine`; only
the public surface (and the exception contract) matches.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet
from repro.core.identifiers import DEFAULT_OPTIONS, IdentifierOptions, extract_identifier
from repro.errors import DatasetError
from repro.net.addresses import AddressFamily
from repro.simnet.device import ServiceType
from repro.sources.records import MAX_ASN, Observation

#: Bucket key: one (protocol, family) stratum of the index.
_BucketKey = tuple[ServiceType, AddressFamily]


class DictObservationIndex:
    """Identifier-keyed index over dicts-of-dicts of strings.

    See :class:`repro.core.engine.ObservationIndex` for the contract; this
    class implements the identical public surface with the original
    string-keyed nested-dict storage.
    """

    def __init__(self, options: IdentifierOptions = DEFAULT_OPTIONS) -> None:
        self._options = options
        self._members: dict[_BucketKey, dict[str, dict[str, int]]] = {}
        self._asn: dict[_BucketKey, dict[str, int]] = {}
        self._asn_refs: dict[_BucketKey, dict[str, int]] = {}
        self._observed = 0
        self._indexed = 0

    @classmethod
    def build(
        cls,
        observations: Iterable[Observation],
        options: IdentifierOptions = DEFAULT_OPTIONS,
    ) -> "DictObservationIndex":
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

    def add(self, observation: Observation) -> bool:
        """Index one observation; returns whether it carried an identifier."""
        asn = observation.asn
        if asn is not None and (type(asn) is not int or not 0 <= asn <= MAX_ASN):
            raise DatasetError(
                f"cannot index observation {observation.address}: "
                f"asn {asn} is not a 32-bit AS number"
            )
        self._observed += 1
        identifier = extract_identifier(observation, self._options)
        if identifier is None:
            return False
        bucket_key = (observation.protocol, observation.family)
        members = self._members.get(bucket_key)
        if members is None:
            members = self._members[bucket_key] = {}
            self._asn[bucket_key] = {}
            self._asn_refs[bucket_key] = {}
        addresses = members.get(identifier.value)
        if addresses is None:
            addresses = members[identifier.value] = {}
        addresses[observation.address] = addresses.get(observation.address, 0) + 1
        if observation.asn is not None:
            asn_refs = self._asn_refs[bucket_key]
            self._asn[bucket_key][observation.address] = observation.asn
            asn_refs[observation.address] = asn_refs.get(observation.address, 0) + 1
        self._indexed += 1
        return True

    def remove(self, observation: Observation) -> bool:
        """Un-index one previously-added observation (exact inverse of :meth:`add`)."""
        asn = observation.asn
        if asn is not None and (type(asn) is not int or not 0 <= asn <= MAX_ASN):
            raise DatasetError(
                f"cannot remove observation {observation.address}: "
                f"asn {asn} is not a 32-bit AS number"
            )
        identifier = extract_identifier(observation, self._options)
        if identifier is None:
            if self._observed <= self._indexed:
                raise DatasetError(
                    "cannot remove identifier-less observation: none outstanding"
                )
            self._observed -= 1
            return False
        bucket_key = (observation.protocol, observation.family)
        members = self._members.get(bucket_key)
        addresses = members.get(identifier.value) if members is not None else None
        count = addresses.get(observation.address) if addresses is not None else None
        if count is None:
            raise DatasetError(
                f"cannot remove unindexed observation {observation.address} "
                f"({observation.protocol.value}, {observation.family.value})"
            )
        if count == 1:
            del addresses[observation.address]
            if not addresses:
                del members[identifier.value]
        else:
            addresses[observation.address] = count - 1
        if observation.asn is not None:
            asn_refs = self._asn_refs[bucket_key]
            remaining = asn_refs.get(observation.address, 0) - 1
            if remaining < 0:
                raise DatasetError(
                    f"ASN bookkeeping underflow for {observation.address}: removed "
                    "an ASN-carrying observation that was never added"
                )
            if remaining:
                asn_refs[observation.address] = remaining
            else:
                asn_refs.pop(observation.address, None)
                self._asn[bucket_key].pop(observation.address, None)
        self._observed -= 1
        self._indexed -= 1
        return True

    def extend(self, observations: Iterable[Observation]) -> None:
        """Index many observations."""
        for observation in observations:
            self.add(observation)

    def state_signature(self) -> dict:
        """Canonical, order-insensitive rendering of the index contents."""
        members: dict = {}
        for bucket_key, identifiers in self._members.items():
            cleaned = {
                value: dict(addresses)
                for value, addresses in identifiers.items()
                if addresses
            }
            if cleaned:
                members[bucket_key] = cleaned
        asn = {key: dict(mapping) for key, mapping in self._asn.items() if mapping}
        return {
            "observed": self._observed,
            "indexed": self._indexed,
            "members": members,
            "asn": asn,
        }

    def alias_sets(
        self,
        protocol: ServiceType,
        family: AddressFamily,
        name: str | None = None,
    ) -> AliasSetCollection:
        """The ``(protocol, family)`` alias-set collection, from the index."""
        bucket_key = (protocol, family)
        members = self._members.get(bucket_key, {})
        collection = AliasSetCollection(
            name or f"{protocol.value}:{family.value}",
            address_asn=self._asn.get(bucket_key, {}),
        )
        protocols = frozenset((protocol,))
        for value, addresses in members.items():
            collection.add(
                AliasSet(
                    identifier=value,
                    addresses=frozenset(addresses),
                    protocols=protocols,
                )
            )
        return collection

    def dual_stack(
        self, protocol: ServiceType, name: str | None = None
    ) -> DualStackCollection:
        """Dual-stack sets for ``protocol``: identifiers seen in both families."""
        ipv4_members = self._members.get((protocol, AddressFamily.IPV4), {})
        ipv6_members = self._members.get((protocol, AddressFamily.IPV6), {})
        address_asn = dict(self._asn.get((protocol, AddressFamily.IPV4), {}))
        address_asn.update(self._asn.get((protocol, AddressFamily.IPV6), {}))
        collection = DualStackCollection(
            name or protocol.value, address_asn=address_asn
        )
        protocols = frozenset((protocol,))
        for value, ipv4_addresses in ipv4_members.items():
            ipv6_addresses = ipv6_members.get(value)
            if not ipv6_addresses:
                continue
            collection.add(
                DualStackSet(
                    identifier=value,
                    ipv4_addresses=frozenset(ipv4_addresses),
                    ipv6_addresses=frozenset(ipv6_addresses),
                    protocols=protocols,
                )
            )
        return collection
