# The hashable UnionFind of src/repro/core/alias_resolution.py as it was
# before it was deleted with its only callers, the MIDAR and Ally loops;
# kept verbatim for reference_techniques.py.  Do not "fix" this module.
"""Union-find over hashable items (reference copy)."""

from __future__ import annotations

from typing import Hashable

from repro.core.alias_resolution import IntUnionFind


class UnionFind:
    """Union-find over hashable items: interned indexes over :class:`IntUnionFind`.

    Items are interned to dense indexes on first sight and all structural
    work (find, union, rank bookkeeping) happens on the flat integer arrays
    of an :class:`IntUnionFind`; only the API surface speaks items.  The
    observable behaviour — roots returned, component contents, first-seen
    group ordering — is identical to the previous all-dict encoding because
    interning preserves insertion order and the rank algorithm is unchanged.
    Shared by the cross-protocol union, the dual-stack union and the
    :mod:`repro.baselines` probing techniques.
    """

    __slots__ = ("_ids", "_items", "_core")

    def __init__(self) -> None:
        self._ids: dict = {}
        self._items: list = []
        self._core = IntUnionFind()

    def _intern(self, item: Hashable) -> int:
        index = self._ids.get(item)
        if index is None:
            index = self._ids[item] = self._core.add()
            self._items.append(item)
        return index

    def __contains__(self, item: Hashable) -> bool:
        return item in self._ids

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: Hashable) -> None:
        """Register ``item`` as a singleton component if unseen."""
        self._intern(item)

    def find(self, item: Hashable) -> Hashable:
        """Root of ``item``'s component, registering ``item`` if unseen."""
        return self._items[self._core.find(self._intern(item))]

    def union(self, left: Hashable, right: Hashable) -> Hashable:
        """Merge the components of ``left`` and ``right``; returns the root."""
        return self._items[self._core.union(self._intern(left), self._intern(right))]

    def groups(self) -> list[set]:
        """Connected components, ordered by each component's first-seen item."""
        components: dict[int, set] = {}
        find = self._core.find
        for index, item in enumerate(self._items):
            components.setdefault(find(index), set()).add(item)
        return list(components.values())
