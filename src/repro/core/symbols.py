"""String interning for the columnar index core.

The resolution hot path handles two string populations with heavy repetition:
addresses (every responsive service on a device re-mentions its address) and
identifier values (every member of an alias set shares one 64-hex-digit
value).  A :class:`SymbolTable` interns each distinct string once and hands
out a dense integer *symbol*; the columnar :class:`~repro.core.engine.ObservationIndex`
then stores only symbols in its buckets, so the per-observation work hashes
each string exactly once (at intern time) and every later comparison, bucket
key and reference-count update is an integer operation.

Dense symbols also make the table trivially array-addressable: ``values[sym]``
decodes a symbol back to its string, and per-symbol side data (address
family codes, ASN columns) lives in flat :mod:`array` columns indexed by
symbol.
"""

from __future__ import annotations

from typing import Iterator


class SymbolTable:
    """Bidirectional string ↔ dense-int mapping with insertion-order symbols.

    Symbols are allocated densely from 0 in first-intern order and are never
    reused, so a table only grows.  The two internal structures — the
    ``str → int`` dict and the ``int → str`` list — are exposed read-only as
    :attr:`ids` and :attr:`values` for hot loops that want to bind them as
    locals; treat both as immutable.
    """

    __slots__ = ("ids", "values")

    def __init__(self) -> None:
        self.values: list[str] = []
        self.ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: str) -> bool:
        return value in self.ids

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def intern(self, value: str) -> int:
        """Symbol of ``value``, allocating the next dense symbol if unseen."""
        sym = self.ids.get(value)
        if sym is None:
            sym = len(self.values)
            self.ids[value] = sym
            self.values.append(value)
        return sym

    def lookup(self, value: str) -> int | None:
        """Symbol of ``value`` if already interned, else ``None``."""
        return self.ids.get(value)

    def value(self, sym: int) -> str:
        """String of symbol ``sym`` (symbols are dense list indexes)."""
        return self.values[sym]
