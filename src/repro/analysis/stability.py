"""Rendering of longitudinal stability metrics.

Turns a campaign's :class:`~repro.longitudinal.campaign.SnapshotStability`
rows (its :class:`~repro.longitudinal.campaign.CampaignLog`) into the
per-snapshot stability table the ``repro longitudinal`` CLI subcommand and
the example script print: how many non-singleton union sets each snapshot
found, how its sets evolved (born / dissolved / grown / shrunk /
migrated), what fraction of the previous snapshot's sets persisted
untouched, and how many of the splits are attributable to injected
address churn — the paper's MIDAR-vs-SSH disagreement mechanism as a
measured quantity.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.tables import markdown_table, render_table
from repro.longitudinal.campaign import LongitudinalConfig, SnapshotStability
from repro.net.addresses import AddressFamily

_HEADERS = [
    "Snapshot",
    "Day",
    "Obs",
    "+Obs",
    "-Obs",
    "Sets",
    "Born",
    "Dissolved",
    "Grown",
    "Shrunk",
    "Migrated",
    "Persistence",
    "Splits",
    "Churn splits",
]


def stability_rows_from(stabilities: Iterable[SnapshotStability]) -> list[list[object]]:
    """The stability table rows (the first snapshot has no delta columns)."""
    rows: list[list[object]] = []
    for stability in stabilities:
        if stability.snapshot == 0:
            rows.append(
                [
                    stability.snapshot,
                    f"{stability.time / 86400:.0f}",
                    stability.observations,
                    "-",
                    "-",
                    stability.sets,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                ]
            )
            continue
        rows.append(
            [
                stability.snapshot,
                f"{stability.time / 86400:.0f}",
                stability.observations,
                f"+{stability.added}",
                f"-{stability.removed}",
                stability.sets,
                stability.born,
                stability.dissolved,
                stability.grown,
                stability.shrunk,
                stability.migrated,
                f"{100 * stability.persistence:.1f}%",
                stability.splits,
                stability.churn_attributed_splits,
            ]
        )
    return rows


def stability_table_from(
    stabilities: Iterable[SnapshotStability],
    config: LongitudinalConfig,
    family: AddressFamily = AddressFamily.IPV4,
) -> str:
    """Render one family's per-snapshot stability table as aligned plain text."""
    family_tag = "IPv4" if family is AddressFamily.IPV4 else "IPv6"
    title = (
        f"Longitudinal stability ({family_tag} union, "
        f"{config.snapshots} snapshots, "
        f"{100 * config.churn_fraction:.1f}% churn/interval)"
    )
    return render_table(_HEADERS, stability_rows_from(stabilities), title=title)


def stability_markdown_from(
    rows_by_family: dict[AddressFamily, Iterable[SnapshotStability]],
) -> str:
    """Render each family's stability table into one markdown document."""
    lines = ["# Longitudinal stability report", ""]
    for family, stabilities in rows_by_family.items():
        family_tag = "IPv4" if family is AddressFamily.IPV4 else "IPv6"
        lines.append(f"## {family_tag} union sets")
        lines.append("")
        lines.append(markdown_table(_HEADERS, stability_rows_from(stabilities)))
        lines.append("")
    return "\n".join(lines)
