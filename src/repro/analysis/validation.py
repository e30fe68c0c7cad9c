"""Rendering of validation reports.

Turns :class:`~repro.validation.report.ValidationReport` objects into the
summary table the ``repro validate`` CLI subcommand prints — one row per
validator with the paper's two headline validation quantities (testable
coverage and agreement) plus the probe accounting that makes shared-bank
savings visible — and per-snapshot tables for the longitudinal
MIDAR-disagreement series (:mod:`repro.validation.longitudinal`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.tables import markdown_table, render_table
from repro.validation.budget import is_unresolved
from repro.validation.longitudinal import SnapshotValidation
from repro.validation.report import ValidationReport

_HEADERS = [
    "Validator",
    "Sets",
    "Testable",
    "Coverage",
    "Agree",
    "Disagree",
    "Agreement",
    "Probes",
    "Reused",
]

_SNAPSHOT_HEADERS = [
    "Snapshot",
    "Day",
    "Probed",
    "Sets",
    "Testable",
    "Coverage",
    "Agree",
    "Disagree",
    "Agreement",
    "Probes",
    "Reused",
]


def _resolved(report: ValidationReport) -> int:
    """Candidate sets the budget resolved: all but those it left unprobed."""
    return report.candidates - sum(map(is_unresolved, report.verdicts))


def _coverage(report: ValidationReport) -> str:
    """The testable share of the resolved sets, ``n/a`` when none was.

    Uncapped, every set is resolved, so this is the report's testable
    coverage; a set the budget left unprobed was not measured.
    """
    resolved = _resolved(report)
    return f"{100 * report.testable_count / resolved:.1f}%" if resolved else "n/a"


def _agreement(report: ValidationReport) -> str:
    """The agreement rate, ``n/a`` when the budget resolved no set."""
    return f"{100 * report.agreement_rate:.1f}%" if _resolved(report) else "n/a"


def validation_rows(reports: Iterable[ValidationReport]) -> list[list[object]]:
    """One summary row per validation report."""
    return [
        [
            report.validator,
            report.candidates,
            report.testable_count,
            _coverage(report),
            report.agree_count,
            report.disagree_count,
            _agreement(report),
            report.probes_issued,
            report.probes_reused,
        ]
        for report in reports
    ]


def validation_table(
    reports: Sequence[ValidationReport], title: str = "Validation summary"
) -> str:
    """Render validation reports as one aligned plain-text table."""
    return render_table(_HEADERS, validation_rows(reports), title=title)


def probe_accounting_summary(reports: Iterable[ValidationReport]) -> str:
    """The CLI's bank probe-accounting lines for a composed validation.

    The first line sums probe spend across the reports and states the
    composed-validator saving: what fraction of the total sample demand
    the shared IPID bank answered without touching the network.  The
    second shows *where* the budget goes, per validator kind (from each
    report's leaf spec), instead of hiding everything behind one
    aggregate.
    """
    reports = list(reports)
    issued = sum(report.probes_issued for report in reports)
    reused = sum(report.probes_reused for report in reports)
    demanded = issued + reused
    line = (
        f"issued {issued} IPID probes; answered {reused} probes "
        "from the shared sample bank"
    )
    if reused and demanded:
        line += f" ({100 * reused / demanded:.1f}% of sample demand saved)"
    by_kind: dict[str, tuple[int, int]] = {}
    for report in reports:
        kind = report.spec.leaf().kind
        kind_issued, kind_reused = by_kind.get(kind, (0, 0))
        by_kind[kind] = (
            kind_issued + report.probes_issued,
            kind_reused + report.probes_reused,
        )
    return (
        f"{line}\n  by validator kind: "
        + "; ".join(
            f"{kind} issued {kind_issued}, reused {kind_reused}"
            for kind, (kind_issued, kind_reused) in sorted(by_kind.items())
        )
    )


def snapshot_validation_rows(rows: Iterable[SnapshotValidation]) -> list[list[object]]:
    """One row per validated campaign snapshot."""
    return [
        [
            row.snapshot,
            f"{row.time / 86400:.0f}",
            f"{row.probed_at / 86400:.0f}",
            row.report.candidates,
            row.report.testable_count,
            _coverage(row.report),
            row.report.agree_count,
            row.report.disagree_count,
            _agreement(row.report),
            row.report.probes_issued,
            row.report.probes_reused,
        ]
        for row in rows
    ]


def snapshot_validation_table(
    rows: Sequence[SnapshotValidation], validator: str
) -> str:
    """Render a per-snapshot validation series as plain text.

    The disagreement column over the snapshots is the paper's
    MIDAR-disagreement mechanism as a measured series: each snapshot's
    sets are probed one churn interval after their scan, so sets holding a
    churned address split under IPID corroboration.
    """
    title = f"Per-snapshot validation ({validator}, probed one interval after each scan)"
    return render_table(_SNAPSHOT_HEADERS, snapshot_validation_rows(rows), title=title)


def validation_markdown(
    reports: Sequence[ValidationReport],
    snapshot_series: dict[str, Sequence[SnapshotValidation]] | None = None,
) -> str:
    """Render validations (and optional snapshot series) as markdown."""
    lines = ["# Validation report", ""]
    if reports:
        lines.append(markdown_table(_HEADERS, validation_rows(reports)))
        lines.append("")
    for validator, rows in (snapshot_series or {}).items():
        lines.append(f"## Per-snapshot validation: {validator}")
        lines.append("")
        lines.append(markdown_table(_SNAPSHOT_HEADERS, snapshot_validation_rows(rows)))
        lines.append("")
    return "\n".join(lines)
