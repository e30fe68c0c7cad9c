#!/usr/bin/env python3
"""Dual-stack discovery: SSH and BGP identifiers vs SNMPv3 engine IDs.

The paper's second headline result is that protocol-centric identifiers
(SSH, BGP, SNMPv3) discover far more dual-stack hosts than earlier
techniques.  This example compares two approaches on the same simulated
Internet:

* SSH/BGP identifiers (this paper), and
* SNMPv3 engine IDs (the prior protocol-centric baseline).

Run with::

    python examples/dualstack_discovery.py
"""

from repro.analysis.tables import render_table
from repro.api import ReproSession, ScenarioConfig
from repro.simnet.device import ServiceType


def main() -> None:
    session = ReproSession(ScenarioConfig(scale=0.5, seed=21))
    observations = list(session.observations("active"))
    print(f"Observations: {len(observations)} over "
          f"{len(session.network.all_addresses())} simulated addresses")

    report = session.report("active")
    ssh = report.dual_stack[ServiceType.SSH]
    bgp = report.dual_stack[ServiceType.BGP]
    snmp = report.dual_stack[ServiceType.SNMPV3]
    union = report.dual_stack_union

    rows = []
    for name, collection in (
        ("SSH", ssh),
        ("BGP", bgp),
        ("SNMPv3", snmp),
        ("SSH+BGP+SNMPv3 union", union),
    ):
        rows.append(
            [
                name,
                len(collection),
                len(collection.ipv4_addresses()),
                len(collection.ipv6_addresses()),
                f"{100 * collection.one_to_one_fraction():.0f}%",
            ]
        )
    print()
    print(render_table(
        ["Technique", "Dual-stack sets", "IPv4 addrs", "IPv6 addrs", "1 IPv4 + 1 IPv6"],
        rows,
        title="Dual-stack identification compared",
    ))

    snmp_only = len(snmp) or 1
    print(f"\nSSH identifies {len(ssh) / snmp_only:.0f}x more dual-stack sets than SNMPv3 alone "
          f"(paper reports roughly 30x).")


if __name__ == "__main__":
    main()
