"""Alias-set data structures.

An :class:`AliasSet` is a group of addresses inferred to belong to one
device, together with the identifier that grouped them and the protocols
that contributed.  An :class:`AliasSetCollection` is the result of one
grouping run (one protocol / data source / family, or a union of several),
and provides the counting and distribution helpers the paper's tables and
figures are built from.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable, Iterable, Iterator

from repro.net.addresses import AddressFamily, family_of
from repro.simnet.device import ServiceType


@dataclasses.dataclass(frozen=True)
class AliasSet:
    """One inferred alias set.

    Attributes:
        identifier: the identifier value that grouped these addresses (for
            union sets this is a synthetic ``union:<smallest-address>``
            label).
        addresses: the grouped addresses.
        protocols: protocols whose identifiers contributed to this set.
    """

    identifier: str
    addresses: frozenset[str]
    protocols: frozenset[ServiceType]

    @property
    def size(self) -> int:
        """Number of addresses in the set."""
        return len(self.addresses)

    @property
    def is_singleton(self) -> bool:
        """Whether the set contains a single address."""
        return self.size == 1

    def ipv4_addresses(self) -> frozenset[str]:
        """IPv4 members of the set."""
        return frozenset(a for a in self.addresses if family_of(a) is AddressFamily.IPV4)

    def ipv6_addresses(self) -> frozenset[str]:
        """IPv6 members of the set."""
        return frozenset(a for a in self.addresses if family_of(a) is AddressFamily.IPV6)

    @property
    def is_dual_stack(self) -> bool:
        """Whether the set contains at least one IPv4 and one IPv6 address."""
        return bool(self.ipv4_addresses()) and bool(self.ipv6_addresses())

    def restricted_to(self, addresses: set[str]) -> frozenset[str]:
        """The subset of this set's addresses contained in ``addresses``."""
        return frozenset(self.addresses & addresses)


class AliasSetCollection:
    """A named collection of alias sets plus the address→ASN mapping."""

    def __init__(
        self,
        name: str,
        sets: Iterable[AliasSet] = (),
        address_asn: dict[str, int] | None = None,
    ) -> None:
        self.name = name
        self._sets: list[AliasSet] = list(sets)
        self._address_asn: dict[str, int] = dict(address_asn or {})

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[AliasSet]:
        return iter(self._sets)

    def __len__(self) -> int:
        return len(self._sets)

    @property
    def sets(self) -> list[AliasSet]:
        """All sets (including singletons)."""
        return list(self._sets)

    @property
    def address_asn(self) -> dict[str, int]:
        """Mapping from address to originating ASN."""
        return dict(self._address_asn)

    def address_asn_items(self):
        """The address→ASN pairs without copying (treat as read-only).

        The ``address_asn`` property defensively copies; union construction
        folds several collections' mappings together and would pay for each
        copy twice, so it consumes this view instead.
        """
        return self._address_asn.items()

    def add(self, alias_set: AliasSet) -> None:
        """Append one set."""
        self._sets.append(alias_set)

    def asn_of(self, address: str) -> int | None:
        """ASN of an address, when known."""
        return self._address_asn.get(address)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def non_singleton(self) -> "AliasSetCollection":
        """Only the sets with two or more addresses (the paper's headline unit)."""
        return AliasSetCollection(
            self.name,
            [alias_set for alias_set in self._sets if not alias_set.is_singleton],
            self._address_asn,
        )

    def filter(self, predicate: Callable[[AliasSet], bool]) -> "AliasSetCollection":
        """Sets matching ``predicate``, as a new collection."""
        return AliasSetCollection(self.name, [s for s in self._sets if predicate(s)], self._address_asn)

    def addresses(self) -> set[str]:
        """Every address covered by the collection."""
        covered: set[str] = set()
        for alias_set in self._sets:
            covered |= alias_set.addresses
        return covered

    def sizes(self) -> list[int]:
        """Set sizes, in collection order (input for the ECDF figures)."""
        return [alias_set.size for alias_set in self._sets]

    # ------------------------------------------------------------------ #
    # AS-level views
    # ------------------------------------------------------------------ #
    def asns_per_set(self) -> list[int]:
        """Number of distinct ASes spanned by each set (Figure 5 input)."""
        counts = []
        for alias_set in self._sets:
            asns = {
                self._address_asn[address]
                for address in alias_set.addresses
                if address in self._address_asn
            }
            counts.append(len(asns))
        return counts

    def sets_per_asn(self) -> Counter:
        """Number of sets attributed to each AS (Figure 6 / Tables 5-6 input).

        A set is attributed to every AS that originates at least one of its
        addresses, which is how a set can appear under several ASes.
        """
        counter: Counter = Counter()
        for alias_set in self._sets:
            asns = {
                self._address_asn[address]
                for address in alias_set.addresses
                if address in self._address_asn
            }
            for asn in asns:
                counter[asn] += 1
        return counter

    def top_asns(self, count: int = 10) -> list[tuple[int, int]]:
        """The ``count`` ASes with the most sets, as (asn, set count) pairs.

        Ties break by ascending ASN (as in the dual-stack collection)
        rather than by counter insertion order: insertion order descends
        from set-iteration order over address frozensets, which varies
        with the interpreter's per-process string-hash salt — the one
        spot where a report could differ between identical runs.
        """
        ranked = sorted(self.sets_per_asn().items(), key=lambda item: (-item[1], item[0]))
        return ranked[:count]
