"""IPv4/IPv6 address and prefix helpers.

The rest of the library passes addresses around as canonical strings
(``"192.0.2.1"``, ``"2001:db8::1"``) because scan records, alias sets and
dataset files are string-keyed.  This module centralises parsing, family
detection, and deterministic address generation inside prefixes so that the
topology generator and the scanner agree on formats.
"""

from __future__ import annotations

import enum
import functools
import ipaddress
import random
from typing import Iterator, Union

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


class AddressFamily(enum.Enum):
    """Address family of an IP address."""

    IPV4 = "ipv4"
    IPV6 = "ipv6"

    # Members are singletons compared by identity, so they hash by identity
    # too: in C, where Enum's own __hash__ (of the name) runs in Python.
    __hash__ = object.__hash__


def parse_address(value: str) -> IPAddress:
    """Parse ``value`` into an :mod:`ipaddress` object.

    Raises:
        ValueError: if ``value`` is not a valid IPv4 or IPv6 address.
    """
    return ipaddress.ip_address(value)


def canonical(value: str) -> str:
    """Return the canonical textual form of an address.

    IPv6 addresses are compressed to their shortest form, which makes string
    equality equivalent to address equality throughout the library.
    """
    return str(parse_address(value))


@functools.lru_cache(maxsize=65536)
def family_of(value: str) -> AddressFamily:
    """Return the :class:`AddressFamily` of ``value``.

    Cached: the pipeline asks for the family of the same canonical address
    strings over and over (every index add/remove consults it), and a dict
    hit is an order of magnitude cheaper than re-parsing the address.  The
    cache is bounded, and the address universe of even a large simulated
    Internet fits comfortably inside it.
    """
    address = parse_address(value)
    if address.version == 4:
        return AddressFamily.IPV4
    return AddressFamily.IPV6


def is_ipv4(value: str) -> bool:
    """Return ``True`` if ``value`` is an IPv4 address."""
    return family_of(value) is AddressFamily.IPV4


def is_ipv6(value: str) -> bool:
    """Return ``True`` if ``value`` is an IPv6 address."""
    return family_of(value) is AddressFamily.IPV6


def parse_network(value: str) -> IPNetwork:
    """Parse a prefix in CIDR notation (``strict=False`` semantics)."""
    return ipaddress.ip_network(value, strict=False)


def prefix_addresses(prefix: str, limit: int | None = None) -> Iterator[str]:
    """Yield host addresses inside ``prefix`` in order.

    For IPv4 prefixes shorter than /31 the network and broadcast addresses are
    skipped (``hosts()`` semantics).  ``limit`` bounds the number of yielded
    addresses, which is essential for IPv6 prefixes.
    """
    network = parse_network(prefix)
    count = 0
    for host in network.hosts():
        if limit is not None and count >= limit:
            return
        yield str(host)
        count += 1


def random_addresses_in_prefix(prefix: str, count: int, rng: random.Random) -> list[str]:
    """Return ``count`` distinct random host addresses inside ``prefix``.

    Used by the IPv6 address plan where prefixes are far too large to
    enumerate.  Sampling is deterministic given ``rng``.

    Raises:
        ValueError: if ``prefix`` does not contain ``count`` distinct hosts.
    """
    network = parse_network(prefix)
    size = network.num_addresses
    # Reserve network/broadcast addresses for short IPv4 prefixes.
    offset_low, offset_high = 0, size - 1
    if network.version == 4 and network.prefixlen < 31:
        offset_low, offset_high = 1, size - 2
    available = offset_high - offset_low + 1
    if available < count:
        raise ValueError(
            f"prefix {prefix} holds only {available} host addresses, {count} requested"
        )
    chosen: set[int] = set()
    # For dense requests enumerate offsets; for sparse requests rejection-sample.
    if count * 2 >= available:
        offsets = list(range(offset_low, offset_high + 1))
        rng.shuffle(offsets)
        chosen = set(offsets[:count])
    else:
        while len(chosen) < count:
            chosen.add(rng.randint(offset_low, offset_high))
    base = int(network.network_address)
    return [str(ipaddress.ip_address(base + offset)) for offset in sorted(chosen)]
