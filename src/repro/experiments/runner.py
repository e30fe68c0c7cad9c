"""The paper's headline claims checked against the reproduction.

``headline_claims`` evaluates the paper's qualitative claims against the
measured numbers (``repro claims``); ``ReproSession.run_experiments``
renders the tables and figures they are read from (``repro experiments``).
"""

from __future__ import annotations

import dataclasses

from repro.api.session import ReproSession
from repro.experiments import figure3, figure5, table1, table2, table3, table4, table5, table6
from repro.simnet.asn import AsRole


@dataclasses.dataclass(frozen=True)
class Claim:
    """One qualitative claim checked against the reproduction."""

    identifier: str
    description: str
    paper: str
    measured: str
    holds: bool


def headline_claims(scenario: ReproSession) -> list[Claim]:
    """Evaluate the paper's headline claims on the scenario."""
    claims: list[Claim] = []

    t3 = table3.build(scenario)
    union_sets = t3.row("ipv4", "Union", "union").sets
    snmp_sets = t3.row("ipv4", "SNMPv3", "union").sets
    ratio = union_sets / snmp_sets if snmp_sets else float("inf")
    claims.append(
        Claim(
            identifier="C1",
            description="Union of SSH+BGP+SNMPv3 identifies ~2x the non-singleton IPv4 alias sets of SNMPv3 alone",
            paper="2.5x (1.4M vs 557k)",
            measured=f"{ratio:.1f}x ({union_sets} vs {snmp_sets})",
            holds=ratio >= 1.8,
        )
    )

    t4 = table4.build(scenario)
    ssh_dual = t4.row("SSH").sets
    snmp_dual = t4.row("SNMPv3").sets
    union_dual = t4.row("Union").sets
    dual_ratio = union_dual / snmp_dual if snmp_dual else float("inf")
    claims.append(
        Claim(
            identifier="C2",
            description="SSH/BGP dual-stack sets dwarf the SNMPv3 baseline (~30x)",
            paper="31x (650k vs 21k)",
            measured=f"{dual_ratio:.0f}x ({union_dual} vs {snmp_dual}; SSH alone {ssh_dual})",
            holds=dual_ratio >= 10,
        )
    )

    t2 = table2.build(scenario)
    agreements = {row.pair: row.agreement_rate for row in t2.rows}
    minimum_agreement = min(agreements.values()) if agreements else 0.0
    claims.append(
        Claim(
            identifier="C3",
            description="Cross-protocol and MIDAR validation agree on >= 95% of comparable sets",
            paper=">= 95% for all four pairs",
            measured=", ".join(f"{pair} {100 * rate:.0f}%" for pair, rate in agreements.items()),
            holds=minimum_agreement >= 0.9,
        )
    )
    claims.append(
        Claim(
            identifier="C3b",
            description="Only a small fraction of SSH sets can be verified by MIDAR at all",
            paper="13% of sampled sets",
            measured=f"{100 * t2.midar_coverage:.0f}% of sampled sets",
            holds=t2.midar_coverage <= 0.5,
        )
    )

    f3 = figure3.build(scenario)
    ssh_two = f3.curve("Active SSH").fraction_exactly_two()
    bgp_two = f3.curve("Active BGP").fraction_exactly_two()
    snmp_two = f3.curve("Active SNMPv3").fraction_exactly_two()
    claims.append(
        Claim(
            identifier="C4",
            description=">60% of SSH IPv4 sets have exactly two addresses; <30% for BGP and SNMPv3",
            paper="SSH >60%, BGP <30%, SNMPv3 <30%",
            measured=f"SSH {100 * ssh_two:.0f}%, BGP {100 * bgp_two:.0f}%, SNMPv3 {100 * snmp_two:.0f}%",
            holds=ssh_two > 0.6 and bgp_two < 0.35 and snmp_two < 0.35,
        )
    )

    f5 = figure5.build(scenario)
    claims.append(
        Claim(
            identifier="C5",
            description="<10% of SSH/SNMPv3 IPv4 sets span multiple ASes; >35% of BGP sets do",
            paper="SSH <10%, SNMPv3 <10%, BGP >35%",
            measured=", ".join(
                f"{label} {100 * fraction:.0f}%" for label, fraction in f5.multi_as_fractions.items()
            ),
            holds=f5.multi_as_fractions["SSH"] < 0.1
            and f5.multi_as_fractions["SNMPv3"] < 0.15
            and f5.multi_as_fractions["BGP"] > 0.35,
        )
    )

    claims.append(
        Claim(
            identifier="C6",
            description="Most dual-stack sets contain exactly one IPv4 and one IPv6 address",
            paper="88% of sets are one IPv4 + one IPv6",
            measured=f"{100 * t4.one_to_one_share:.0f}% of sets",
            holds=t4.one_to_one_share >= 0.5,
        )
    )

    t1 = table1.build(scenario)
    ssh_row = t1.row("SSH")
    censys_gain = (ssh_row.censys_ips or 0) / ssh_row.active_ips if ssh_row.active_ips else 0.0
    union_gain = (ssh_row.union_ips or 0) / ssh_row.active_ips if ssh_row.active_ips else 0.0
    claims.append(
        Claim(
            identifier="C7",
            description="Censys sees more SSH IPs than the single active vantage point; the union is larger than either",
            paper="Censys/active = 1.37, union/active = 1.53",
            measured=f"Censys/active = {censys_gain:.2f}, union/active = {union_gain:.2f}",
            holds=censys_gain > 1.1 and union_gain >= censys_gain,
        )
    )

    t5 = table5.build(scenario)
    ssh_cloud = t5.cloud_share("SSH")
    bgp_roles = t5.role_counts("BGP")
    snmp_roles = t5.role_counts("SNMPv3")
    bgp_isp = bgp_roles.get(AsRole.ISP, 0)
    snmp_isp = snmp_roles.get(AsRole.ISP, 0)
    claims.append(
        Claim(
            identifier="C8",
            description="SSH top-10 ASes dominated by cloud providers; BGP/SNMPv3 top-10 dominated by ISPs",
            paper="SSH 8/10 cloud; BGP and SNMPv3 8/10 ISPs",
            measured=f"SSH {ssh_cloud * 10:.0f}/10 cloud; BGP {bgp_isp}/10 ISPs; SNMPv3 {snmp_isp}/10 ISPs",
            holds=ssh_cloud >= 0.6 and bgp_isp >= 6 and snmp_isp >= 6,
        )
    )

    t6 = table6.build(scenario)
    claims.append(
        Claim(
            identifier="C9",
            description="The top cloud ASes hold a majority of all dual-stack sets",
            paper="top 3 ASes cover 54% of dual-stack sets",
            measured=f"top 3 ASes cover {100 * t6.top3_dual_stack_share:.0f}%",
            holds=t6.top3_dual_stack_share >= 0.3,
        )
    )
    return claims
