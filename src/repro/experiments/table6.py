"""Table 6 — Top 10 ASes for IPv6 alias sets and for dual-stack sets.

As with Table 5, the reproduction checks the role composition: the paper
finds the IPv6 alias-set top-10 dominated by ISPs (router interfaces are
where multiple IPv6 addresses per device live) while the dual-stack top-10
is dominated by cloud providers, whose top three ASes hold more than half
of all dual-stack sets.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.aslevel import TopAsEntry, role_split, top_as_table
from repro.analysis.tables import format_count, render_table
from repro.api.experiments import experiment
from repro.api.session import ReproSession
from repro.simnet.asn import AsRole


@dataclasses.dataclass
class Table6Result:
    """Top ASes for IPv6 alias sets and dual-stack sets."""

    ipv6_entries: list[TopAsEntry]
    dual_stack_entries: list[TopAsEntry]
    dual_stack_total: int
    top3_dual_stack_share: float

    def role_counts(self, column: str) -> dict[AsRole, int]:
        entries = self.ipv6_entries if column == "ipv6" else self.dual_stack_entries
        return dict(role_split(entries))


@experiment("table6", description="Table 6 — top 10 ASes for IPv6 / dual-stack sets")
def build(session: ReproSession, count: int = 10) -> Table6Result:
    """Build Table 6 from the union report."""
    report = session.report("union")
    registry = session.as_registry
    ipv6_entries = top_as_table(report.ipv6_union, registry, count=count)
    dual_entries = top_as_table(report.dual_stack_union, registry, count=count)
    total = len(report.dual_stack_union)
    top3 = sum(entry.set_count for entry in dual_entries[:3])
    return Table6Result(
        ipv6_entries=ipv6_entries,
        dual_stack_entries=dual_entries,
        dual_stack_total=total,
        top3_dual_stack_share=top3 / total if total else 0.0,
    )


def render(result: Table6Result) -> str:
    """Render Table 6 as text."""
    depth = max(len(result.ipv6_entries), len(result.dual_stack_entries))
    rows = []
    for rank in range(depth):
        row = [str(rank + 1)]
        for entries in (result.ipv6_entries, result.dual_stack_entries):
            if rank < len(entries):
                entry = entries[rank]
                role = entry.role.value if entry.role else "?"
                row.append(f"AS{entry.asn} [{role}] ({format_count(entry.set_count)})")
            else:
                row.append("-")
        rows.append(row)
    table = render_table(
        ["Rank", "IPv6", "Dual-stack"], rows, title="Table 6: Top 10 ASes for IPv6 alias and dual-stack sets"
    )
    note = f"Top 3 dual-stack ASes hold {100 * result.top3_dual_stack_share:.1f}% of all dual-stack sets"
    return f"{table}\n{note}"
