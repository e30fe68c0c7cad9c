"""Grouping observations into alias sets, and the cross-protocol union.

The grouping step is deliberately simple — that is the point of the paper:
once a host-wide identifier is available, alias resolution is a group-by.
The union step merges per-protocol collections with a union-find over shared
addresses, reproducing how the paper consolidates SSH, BGP and SNMPv3 into
one set of alias sets (3% of addresses respond to more than one service and
act as bridges).

The grouping itself lives in :class:`~repro.core.engine.ObservationIndex`:
one pass buckets every observation by identifier, and the batch pipeline
(:mod:`repro.core.engine`) feeds the per-protocol collections it derives
through :meth:`AliasResolver.union`.  Each union call sizes one
:class:`IntUnionFind` for its sets and takes each set's smallest address
once: that address both orders the components and labels them.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from operator import itemgetter
from typing import Callable, Collection, Iterable, Sequence, TypeVar

from repro.core.aliasset import AliasSet, AliasSetCollection

Item = TypeVar("Item")


class IntUnionFind:
    """Union-find over a dense integer domain: flat arrays, union by rank.

    Parent pointers and ranks live in :mod:`array` columns indexed by item,
    so a million-component structure is two contiguous buffers instead of a
    pair of hash tables.  The find is iterative (two pointer-chasing loops
    with full path compression) rather than recursive, so million-item
    parent chains never hit :class:`RecursionError`; union by rank keeps the
    chains short in the first place.

    Items are the dense indexes ``0..len(self)-1``: ``IntUnionFind(size)``
    starts with ``size`` singletons, and :meth:`add` hands out the next one.
    Callers with other items use their positions in a sequence, and size
    the structure once, as the cross-protocol and dual-stack unions
    (:func:`merge_overlapping`) and the IPID techniques' corroboration loop
    do.
    """

    __slots__ = ("_parent", "_rank")

    def __init__(self, size: int = 0) -> None:
        self._parent = array("q", range(size))
        self._rank = array("b", bytes(size))

    def __len__(self) -> int:
        return len(self._parent)

    def add(self) -> int:
        """Allocate the next index as a fresh singleton component."""
        index = len(self._parent)
        self._parent.append(index)
        self._rank.append(0)
        return index

    def find(self, index: int) -> int:
        """Root of ``index``'s component (with full path compression)."""
        parent = self._parent
        root = parent[index]
        while parent[root] != root:
            root = parent[root]
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    def union(self, left: int, right: int) -> int:
        """Merge the components of ``left`` and ``right``; returns the root."""
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return left_root
        rank = self._rank
        left_rank = rank[left_root]
        right_rank = rank[right_root]
        if left_rank < right_rank:
            left_root, right_root = right_root, left_root
        self._parent[right_root] = left_root
        if left_rank == right_rank:
            rank[left_root] = left_rank + 1
        return left_root

    def groups(self) -> list[list[int]]:
        """Connected components, ordered by each component's first-seen index."""
        components: dict[int, list[int]] = {}
        find = self.find
        for index in range(len(self._parent)):
            components.setdefault(find(index), []).append(index)
        return list(components.values())


def merge_overlapping(
    items: Sequence[Item], addresses_of: Callable[[Item], Collection[str]]
) -> list[tuple[str, list[Item]]]:
    """Group ``items`` into components connected through shared addresses.

    The single algorithm behind both :meth:`AliasResolver.union` and
    :func:`repro.core.dual_stack.union_dual_stack`: a rank-based
    :class:`IntUnionFind` over item positions (already dense, so no
    interning layer), sized once, driven by an address→first-owner mapping
    so two items merge the moment a second one claims an already-owned
    address.  Items with no addresses are skipped.

    Returns ``(smallest address, component)`` pairs, each component's items
    in input order, ordered by the smallest member address, which makes the
    derived ``union:<smallest-address>`` labels canonical (independent of
    input order).  Each item's smallest address is computed once.
    """
    contributing: list[Item] = []
    address_sets: list[Collection[str]] = []
    for item in items:
        addresses = addresses_of(item)
        if addresses:
            contributing.append(item)
            address_sets.append(addresses)
    union_find = IntUnionFind(len(contributing))
    owner: dict[str, int] = {}
    for index, addresses in enumerate(address_sets):
        for address in addresses:
            first_owner = owner.setdefault(address, index)
            if first_owner != index:
                union_find.union(first_owner, index)
    components: dict[int, list[Item]] = defaultdict(list)
    smallest_address: dict[int, str] = {}
    for index, item in enumerate(contributing):
        root = union_find.find(index)
        components[root].append(item)
        candidate = min(address_sets[index])
        if root not in smallest_address or candidate < smallest_address[root]:
            smallest_address[root] = candidate
    return sorted(
        ((smallest_address[root], component) for root, component in components.items()),
        key=itemgetter(0),
    )


def combine_alias_sets(smallest: str, component: list[AliasSet]) -> AliasSet:
    """Fold one union component, whose smallest address is ``smallest``,
    into its output set.

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
        identifier=f"union:{smallest}",
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
        set rather than per address, each set's smallest address taken
        once — and the synthetic ``union:<smallest-address>`` labels are
        canonical and *stable*: a component keeps its label across
        snapshots unless its smallest member changes.  Sets are ordered by
        the same smallest member address, so the output is independent of
        collection iteration order.
        """
        contributing: list[AliasSet] = []
        address_asn: dict[str, int] = {}
        for collection in collections:
            address_asn.update(collection.address_asn_items())
            contributing.extend(collection)
        result = AliasSetCollection(name, address_asn=address_asn)
        for smallest, component in merge_overlapping(
            contributing, lambda alias_set: alias_set.addresses
        ):
            result.add(combine_alias_sets(smallest, component))
        return result
