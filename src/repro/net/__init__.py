"""Network primitives used across the repro library.

This package contains the low-level building blocks shared by the protocol
implementations, the scanner, and the simulated Internet:

* :mod:`repro.net.addresses` — IPv4/IPv6 address and prefix helpers built on
  the standard :mod:`ipaddress` module.
* :mod:`repro.net.ipid` — IPID counter models used by the IPID-based
  alias-resolution baselines (MIDAR, Ally, Speedtrap).
* :mod:`repro.net.endpoint` — the abstract connection interface between
  scanning clients and servers (simulated or in-memory).
"""

from repro.net.addresses import (
    AddressFamily,
    canonical,
    family_of,
    is_ipv4,
    is_ipv6,
    parse_address,
    prefix_addresses,
    random_addresses_in_prefix,
)
from repro.net.endpoint import Connection, ConnectionClosed, LoopbackConnection, ServerBehavior
from repro.net.ipid import (
    ConstantIpidCounter,
    HighVelocityIpidCounter,
    IpidCounter,
    MonotonicIpidCounter,
    PerInterfaceIpidCounter,
    RandomIpidCounter,
)

__all__ = [
    "AddressFamily",
    "canonical",
    "family_of",
    "is_ipv4",
    "is_ipv6",
    "parse_address",
    "prefix_addresses",
    "random_addresses_in_prefix",
    "Connection",
    "ConnectionClosed",
    "LoopbackConnection",
    "ServerBehavior",
    "IpidCounter",
    "MonotonicIpidCounter",
    "PerInterfaceIpidCounter",
    "RandomIpidCounter",
    "ConstantIpidCounter",
    "HighVelocityIpidCounter",
]
