"""Table 5 — Top 10 ASes for IPv4 alias sets per protocol and for the union.

Real AS numbers obviously differ in the simulation; what the reproduction
checks is the paper's qualitative finding: the SSH (and union) top-10 is
dominated by cloud providers while BGP and SNMPv3 are dominated by ISPs.
Each entry therefore carries the AS's role from the simulated registry.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.aslevel import TopAsEntry, role_split, top_as_table
from repro.analysis.tables import format_count, render_table
from repro.api.experiments import experiment
from repro.api.session import ReproSession
from repro.simnet.asn import AsRole
from repro.simnet.device import ServiceType

_LABELS = {ServiceType.SSH: "SSH", ServiceType.BGP: "BGP", ServiceType.SNMPV3: "SNMPv3"}


@dataclasses.dataclass
class Table5Result:
    """Top-10 AS entries per technique plus per-technique role counts."""

    columns: dict[str, list[TopAsEntry]]

    def role_counts(self, technique: str) -> dict[AsRole, int]:
        return dict(role_split(self.columns[technique]))

    def cloud_share(self, technique: str) -> float:
        entries = self.columns[technique]
        if not entries:
            return 0.0
        return sum(1 for entry in entries if entry.role is AsRole.CLOUD) / len(entries)


@experiment("table5", description="Table 5 — top 10 ASes for IPv4 alias sets")
def build(session: ReproSession, count: int = 10) -> Table5Result:
    """Build Table 5 from the union report's IPv4 collections."""
    report = session.report("union")
    registry = session.as_registry
    columns: dict[str, list[TopAsEntry]] = {}
    for protocol in (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3):
        columns[_LABELS[protocol]] = top_as_table(report.ipv4[protocol], registry, count=count)
    columns["Union"] = top_as_table(report.ipv4_union, registry, count=count)
    return Table5Result(columns=columns)


def render(result: Table5Result) -> str:
    """Render Table 5 as text."""
    techniques = list(result.columns)
    depth = max((len(entries) for entries in result.columns.values()), default=0)
    rows = []
    for rank in range(depth):
        row = [str(rank + 1)]
        for technique in techniques:
            entries = result.columns[technique]
            if rank < len(entries):
                entry = entries[rank]
                role = entry.role.value if entry.role else "?"
                row.append(f"AS{entry.asn} [{role}] ({format_count(entry.set_count)})")
            else:
                row.append("-")
        rows.append(row)
    return render_table(
        ["Rank"] + techniques, rows, title="Table 5: Top 10 ASes for IPv4 alias sets"
    )
