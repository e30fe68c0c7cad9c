"""Dual-stack sets and their cross-protocol union.

A dual-stack set is a group of at least one IPv4 and one IPv6 address that
share the same host-wide identifier — the same device answering over both
families.  The paper's headline result is that SSH and BGP identify roughly
thirty times more dual-stack sets than the SNMPv3 baseline alone, because
far more IPv6-reachable hosts expose SSH than SNMPv3.

The per-protocol sets are derived by
:meth:`~repro.core.engine.ObservationIndex.dual_stack`; this module holds
their data structures and :func:`union_dual_stack`.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Iterable, Iterator

from repro.core.alias_resolution import merge_overlapping
from repro.simnet.device import ServiceType


@dataclasses.dataclass(frozen=True)
class DualStackSet:
    """One inferred dual-stack set."""

    identifier: str
    ipv4_addresses: frozenset[str]
    ipv6_addresses: frozenset[str]
    protocols: frozenset[ServiceType]

    @property
    def size(self) -> int:
        """Total number of addresses (both families)."""
        return len(self.ipv4_addresses) + len(self.ipv6_addresses)

    @property
    def is_one_to_one(self) -> bool:
        """Whether the set pairs exactly one IPv4 with one IPv6 address."""
        return len(self.ipv4_addresses) == 1 and len(self.ipv6_addresses) == 1


class DualStackCollection:
    """A named collection of dual-stack sets."""

    def __init__(self, name: str, sets: Iterable[DualStackSet] = (), address_asn: dict[str, int] | None = None) -> None:
        self.name = name
        self._sets = list(sets)
        self._address_asn = dict(address_asn or {})

    def __iter__(self) -> Iterator[DualStackSet]:
        return iter(self._sets)

    def __len__(self) -> int:
        return len(self._sets)

    @property
    def sets(self) -> list[DualStackSet]:
        """All dual-stack sets."""
        return list(self._sets)

    @property
    def address_asn(self) -> dict[str, int]:
        """Mapping from address to originating ASN."""
        return dict(self._address_asn)

    def address_asn_items(self):
        """The address→ASN pairs without copying (treat as read-only)."""
        return self._address_asn.items()

    def add(self, dual_set: DualStackSet) -> None:
        """Append one set."""
        self._sets.append(dual_set)

    def ipv4_addresses(self) -> set[str]:
        """Every IPv4 address covered by a dual-stack set."""
        covered: set[str] = set()
        for dual_set in self._sets:
            covered |= dual_set.ipv4_addresses
        return covered

    def ipv6_addresses(self) -> set[str]:
        """Every IPv6 address covered by a dual-stack set."""
        covered: set[str] = set()
        for dual_set in self._sets:
            covered |= dual_set.ipv6_addresses
        return covered

    def one_to_one_fraction(self) -> float:
        """Fraction of sets pairing exactly one IPv4 with one IPv6 address."""
        if not self._sets:
            return 0.0
        return sum(1 for dual_set in self._sets if dual_set.is_one_to_one) / len(self._sets)

    def sets_per_asn(self) -> dict[int, int]:
        """Number of dual-stack sets attributed to each AS."""
        counts: dict[int, int] = defaultdict(int)
        for dual_set in self._sets:
            asns = {
                self._address_asn[address]
                for address in dual_set.ipv4_addresses | dual_set.ipv6_addresses
                if address in self._address_asn
            }
            for asn in asns:
                counts[asn] += 1
        return dict(counts)

    def top_asns(self, count: int = 10) -> list[tuple[int, int]]:
        """The ``count`` ASes with the most dual-stack sets."""
        return sorted(self.sets_per_asn().items(), key=lambda item: (-item[1], item[0]))[:count]


def combine_dual_sets(smallest: str, component: list[DualStackSet]) -> DualStackSet:
    """Fold one dual-stack union component, whose smallest address is
    ``smallest``, into its output set.

    The dual union's output shape for :func:`union_dual_stack`: the
    canonical ``union:<smallest-address>`` label, and the member's own
    frozensets reused for a one-set component.
    """
    if len(component) == 1:
        # Most components are one set; reuse its frozensets rather than
        # copying them into identical new ones.
        ipv4_addresses = component[0].ipv4_addresses
        ipv6_addresses = component[0].ipv6_addresses
        protocols = component[0].protocols
    else:
        ipv4_addresses = frozenset().union(*(d.ipv4_addresses for d in component))
        ipv6_addresses = frozenset().union(*(d.ipv6_addresses for d in component))
        protocols = frozenset().union(*(d.protocols for d in component))
    return DualStackSet(
        identifier=f"union:{smallest}",
        ipv4_addresses=ipv4_addresses,
        ipv6_addresses=ipv6_addresses,
        protocols=protocols,
    )


def union_dual_stack(
    collections: Iterable[DualStackCollection], name: str = "union"
) -> DualStackCollection:
    """Union dual-stack collections, merging sets that share any address.

    Shares :func:`~repro.core.alias_resolution.merge_overlapping` with
    :meth:`AliasResolver.union`, so both unions have identical merge algebra
    and canonical, churn-stable ``union:<smallest-address>`` labels ordered
    by each component's smallest address.
    """
    contributing: list[DualStackSet] = []
    address_asn: dict[str, int] = {}
    for collection in collections:
        address_asn.update(collection.address_asn_items())
        contributing.extend(collection)
    result = DualStackCollection(name, address_asn=address_asn)
    for smallest, component in merge_overlapping(
        contributing, lambda dual_set: dual_set.ipv4_addresses | dual_set.ipv6_addresses
    ):
        result.add(combine_dual_sets(smallest, component))
    return result
