# The cross-protocol and dual-stack unions of src/repro/core/alias_resolution.py
# and src/repro/core/dual_stack.py as they were before the union took each
# set's smallest address once and sized its IntUnionFind once; kept verbatim
# for test_union_properties.py.  Do not "fix" this module.
"""The union step (reference copy)."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.core.alias_resolution import IntUnionFind
from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet


def merge_overlapping(items: Iterable, addresses_of) -> list[list]:
    """Group ``items`` into components connected through shared addresses.

    The single algorithm behind both :meth:`AliasResolver.union` and
    :func:`repro.core.dual_stack.union_dual_stack`: a rank-based
    :class:`IntUnionFind` over item indices (already dense, so no interning
    layer), driven by an address→first-owner mapping so two items merge the
    moment a second one claims an already-owned address.  Items with no
    addresses are skipped.  Components are returned ordered by their
    smallest member address, which makes the derived
    ``union:<smallest-address>`` labels canonical (independent of input
    order).
    """
    contributing: list = []
    address_sets: list = []
    union_find = IntUnionFind()
    owner: dict = {}
    for item in items:
        addresses = addresses_of(item)
        if not addresses:
            continue
        index = union_find.add()
        contributing.append(item)
        address_sets.append(addresses)
        for address in addresses:
            first_owner = owner.setdefault(address, index)
            if first_owner != index:
                union_find.union(first_owner, index)
    components: dict = defaultdict(list)
    smallest_address: dict = {}
    for index, item in enumerate(contributing):
        root = union_find.find(index)
        components[root].append(item)
        candidate = min(address_sets[index])
        if root not in smallest_address or candidate < smallest_address[root]:
            smallest_address[root] = candidate
    return [
        components[root]
        for root in sorted(components, key=smallest_address.__getitem__)
    ]


def combine_alias_sets(component: list[AliasSet]) -> AliasSet:
    """Fold one union component into its output set.

    The union's output shape for :meth:`AliasResolver.union`: the
    canonical, churn-stable ``union:<smallest-address>`` label, and the
    member's own frozensets reused for a one-set component.
    """
    if len(component) == 1:
        # Most components are one set; reuse its frozensets rather than
        # copying them into identical new ones.
        addresses = component[0].addresses
        protocols = component[0].protocols
    else:
        addresses = frozenset().union(*(s.addresses for s in component))
        protocols = frozenset().union(*(s.protocols for s in component))
    return AliasSet(
        identifier=f"union:{min(addresses)}",
        addresses=addresses,
        protocols=protocols,
    )


class AliasResolver:
    """The cross-protocol union of per-protocol alias-set collections."""

    @staticmethod
    def union(
        collections: Iterable[AliasSetCollection], name: str = "union"
    ) -> AliasSetCollection:
        """Union several collections, merging sets that share an address.

        Addresses responsive to multiple protocols bridge their per-protocol
        sets into one combined set; sets with no overlap are kept as-is.

        Components are built by :func:`merge_overlapping` directly from an
        address→set mapping — no per-set sorting, one union-find item per
        set rather than per address — and the synthetic
        ``union:<smallest-address>`` labels are canonical and *stable*: a
        component keeps its label across snapshots unless its smallest
        member changes.  Sets are ordered by the same smallest member
        address, so the output is independent of collection iteration
        order.
        """
        contributing: list[AliasSet] = []
        address_asn: dict[str, int] = {}
        for collection in collections:
            address_asn.update(collection.address_asn_items())
            contributing.extend(collection)
        result = AliasSetCollection(name, address_asn=address_asn)
        components = merge_overlapping(contributing, lambda alias_set: alias_set.addresses)
        for component in components:
            result.add(combine_alias_sets(component))
        return result


def combine_dual_sets(component: list[DualStackSet]) -> DualStackSet:
    """Fold one dual-stack union component into its output set.

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
    smallest = min(min(ipv4_addresses), min(ipv6_addresses))
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
    components = merge_overlapping(
        contributing, lambda dual_set: dual_set.ipv4_addresses | dual_set.ipv6_addresses
    )
    for component in components:
        result.add(combine_dual_sets(component))
    return result
