#!/usr/bin/env python3
"""Quickstart: scan a small simulated Internet and resolve aliases.

This walks the full pipeline in miniature:

1. generate a small simulated Internet (a few cloud ASes, ISPs, enterprises),
2. run the two-phase active scan (SYN scan + application-layer grab) for
   SSH, BGP and SNMPv3 over IPv4 and an IPv6 hitlist,
3. group addresses sharing a host identifier into alias sets, and
4. merge IPv4 and IPv6 groups into dual-stack sets.

Run with::

    python examples/quickstart.py
"""

from repro.analysis.tables import render_table
from repro.core.engine import ResolutionEngine
from repro.net.addresses import AddressFamily
from repro.simnet.device import ServiceType
from repro.simnet.topology import generate_topology, small_topology_config
from repro.sources.active import ActiveMeasurement
from repro.sources.hitlist import HitlistConfig, build_ipv6_hitlist


def main() -> None:
    # 1. A small, fully deterministic simulated Internet.
    network = generate_topology(small_topology_config(seed=2024))
    print(f"Simulated Internet: {len(network.devices())} devices, "
          f"{len(network.all_addresses())} addresses, {len(network.registry)} ASes")

    # 2. Active measurement from a single vantage point.
    campaign = ActiveMeasurement(network, seed=1)
    observations = campaign.run_ipv4()
    hitlist = build_ipv6_hitlist(network, HitlistConfig(seed=1))
    observations.extend(campaign.run_ipv6(hitlist, start_time=86_400.0))
    print(f"Collected {len(observations)} service observations "
          f"({len(observations.addresses())} distinct addresses)")

    # 3 + 4. Alias resolution and dual-stack inference.
    report = ResolutionEngine().resolve(observations, name="quickstart")
    rows = []
    for protocol in (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3):
        ipv4 = report.ipv4[protocol].non_singleton()
        dual = report.dual_stack[protocol]
        rows.append([protocol.value, len(ipv4), len(ipv4.addresses()), len(dual)])
    union = report.ipv4_union.non_singleton()
    rows.append(["union", len(union), len(union.addresses()), len(report.dual_stack_union)])
    print()
    print(render_table(
        ["Protocol", "IPv4 alias sets", "IPv4 addresses", "Dual-stack sets"],
        rows,
        title="Alias resolution summary",
    ))

    # Show a couple of concrete alias sets.
    print("\nExample SSH alias sets:")
    examples = [s for s in report.ipv4[ServiceType.SSH].non_singleton()][:3]
    for alias_set in examples:
        print(f"  identifier {alias_set.identifier[:16]}…: {sorted(alias_set.addresses)}")

    print("\nExample dual-stack sets:")
    for dual in report.dual_stack_union.sets[:3]:
        print(f"  {sorted(dual.ipv4_addresses)} <-> {sorted(dual.ipv6_addresses)}")

    counts = report.non_singleton_counts(AddressFamily.IPV4)
    print(f"\nThe union identifies {counts['union']} non-singleton IPv4 alias sets; "
          f"SNMPv3 alone finds {counts['snmpv3']}.")


if __name__ == "__main__":
    main()
