"""End-to-end markdown report over one alias-resolution run.

Used by the examples to show a self-contained view of what the technique
found in a dataset: per-protocol set counts, size statistics, dual-stack
coverage, and top ASes.
"""

from __future__ import annotations

from repro.analysis.aslevel import top_as_table
from repro.analysis.setstats import set_size_summary
from repro.analysis.tables import format_count
from repro.core.engine import AliasReport
from repro.simnet.asn import AsRegistry
from repro.simnet.device import ServiceType


def alias_report_markdown(report: AliasReport, registry: AsRegistry | None = None) -> str:
    """Render an :class:`AliasReport` as a markdown document."""
    lines = [f"# Alias resolution report — {report.name}", ""]

    lines.append("## Non-singleton alias sets")
    lines.append("")
    lines.append("| Protocol | IPv4 sets | IPv4 addresses | IPv6 sets | IPv6 addresses |")
    lines.append("|---|---|---|---|---|")
    for protocol in (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3):
        ipv4 = report.ipv4[protocol].non_singleton()
        ipv6 = report.ipv6[protocol].non_singleton()
        lines.append(
            f"| {protocol.value} | {format_count(len(ipv4))} | {format_count(len(ipv4.addresses()))} "
            f"| {format_count(len(ipv6))} | {format_count(len(ipv6.addresses()))} |"
        )
    ipv4_union = report.ipv4_union.non_singleton()
    ipv6_union = report.ipv6_union.non_singleton()
    lines.append(
        f"| union | {format_count(len(ipv4_union))} | {format_count(len(ipv4_union.addresses()))} "
        f"| {format_count(len(ipv6_union))} | {format_count(len(ipv6_union.addresses()))} |"
    )
    lines.append("")

    lines.append("## Set sizes (IPv4)")
    lines.append("")
    lines.append("| Protocol | sets | exactly 2 | <= 10 | median | max |")
    lines.append("|---|---|---|---|---|---|")
    for protocol in (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3):
        summary = set_size_summary(report.ipv4[protocol])
        lines.append(
            f"| {protocol.value} | {summary.set_count} | {100 * summary.fraction_exactly_two:.1f}% "
            f"| {100 * summary.fraction_at_most_ten:.1f}% | {summary.median_size:.0f} | {summary.max_size} |"
        )
    lines.append("")

    lines.append("## Dual-stack sets")
    lines.append("")
    lines.append("| Technique | sets | IPv4 addresses | IPv6 addresses | 1+1 share |")
    lines.append("|---|---|---|---|---|")
    for protocol in (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3):
        collection = report.dual_stack[protocol]
        lines.append(
            f"| {protocol.value} | {format_count(len(collection))} | {format_count(len(collection.ipv4_addresses()))} "
            f"| {format_count(len(collection.ipv6_addresses()))} | {100 * collection.one_to_one_fraction():.1f}% |"
        )
    union = report.dual_stack_union
    lines.append(
        f"| union | {format_count(len(union))} | {format_count(len(union.ipv4_addresses()))} "
        f"| {format_count(len(union.ipv6_addresses()))} | {100 * union.one_to_one_fraction():.1f}% |"
    )
    lines.append("")

    lines.append("## Top ASes (IPv4 union)")
    lines.append("")
    lines.append("| Rank | ASN | Sets | Role |")
    lines.append("|---|---|---|---|")
    for entry in top_as_table(report.ipv4_union, registry, count=10):
        role = entry.role.value if entry.role else "unknown"
        lines.append(f"| {entry.rank} | AS{entry.asn} | {format_count(entry.set_count)} | {role} |")
    lines.append("")
    return "\n".join(lines)
