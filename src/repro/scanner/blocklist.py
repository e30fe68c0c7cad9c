"""Scan blocklist.

Internet-wide scanning best practice (and the paper's ethics section)
requires honouring opt-out requests: addresses and prefixes on the blocklist
are never probed.  The blocklist accepts both single addresses and CIDR
prefixes, for IPv4 and IPv6.
"""

from __future__ import annotations

from typing import Iterable

from repro.net.addresses import IPAddress, IPNetwork, family_of, parse_address, parse_network


class Blocklist:
    """A set of addresses and prefixes that must not be scanned.

    Entries are parsed once, when added, and a target at most once per
    lookup.  Matching compares parsed addresses, so a non-canonical
    spelling such as ``2001:DB8:0::1`` matches the entry ``2001:db8::1``.
    Filtering through an empty blocklist, the default of every scanner,
    parses nothing: it only asks the cached
    :func:`~repro.net.addresses.family_of` whether each target is an
    address.  A malformed entry or target raises ``ValueError`` in every
    case.
    """

    def __init__(self, entries: Iterable[str] = ()) -> None:
        self._networks: list[IPNetwork] = []
        self._addresses: set[IPAddress] = set()
        for entry in entries:
            self.add(entry)

    def add(self, entry: str) -> None:
        """Add an address or CIDR prefix to the blocklist."""
        if "/" in entry:
            self._networks.append(parse_network(entry))
        else:
            self._addresses.add(parse_address(entry))

    def __contains__(self, address: str) -> bool:
        parsed = parse_address(address)
        if parsed in self._addresses:
            return True
        return any(
            parsed.version == network.version and parsed in network for network in self._networks
        )

    def __len__(self) -> int:
        return len(self._addresses) + len(self._networks)

    def filter(self, addresses: Iterable[str]) -> list[str]:
        """Return the addresses that are allowed to be scanned."""
        if self:
            return [address for address in addresses if address not in self]
        allowed = list(addresses)
        for address in allowed:
            family_of(address)  # raises ValueError on a malformed target
        return allowed
