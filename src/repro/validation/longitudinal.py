"""Per-snapshot validation of longitudinal campaigns.

The paper attributes part of its SSH/MIDAR disagreement to the three-week
MIDAR run itself: addresses that moved between devices after the scan but
before (or during) the IPID probing split under corroboration even though
the identifier evidence was correct when collected.  This module makes
that mechanism measurable on the registry: take the updates a campaign's
poll loop emitted (:class:`~repro.stream.daemon.StreamDaemon`), and for
every snapshot re-run one registered validator over that snapshot's
index-derived sets — probing one campaign interval after the snapshot's
scan, i.e. right before the *next* snapshot's scan.  Addresses churned
mid-interval answer IPID probes from their new device, so the
per-snapshot disagreement series exposes exactly the paper's
churn-driven MIDAR-disagreement effect.  That is also why the
validation runs after the last poll, not as each poll lands: the probes
of snapshot *k* must see the churn that poll *k + 1* injects.

All snapshots share one :class:`~repro.validation.runner.ValidationRun`
(and therefore its one sample bank), but banked evidence is only read
within :data:`~repro.validation.budget.DEFAULT_VELOCITY_TTL` (one
simulated day) of the read.  Validators sharing the run therefore share
probes within a snapshot's validation window.  A snapshot re-reads an
earlier snapshot's samples only when they were collected within a day of
the read: never at the default week-long campaign interval, but at an
interval of a day or less it re-reads most of them.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.longitudinal.campaign import LongitudinalCampaign
from repro.stream.engine import StreamUpdate
from repro.validation.budget import ProbeBudget
from repro.validation.report import ValidationReport
from repro.validation.runner import ValidationRun, candidate_sets, run_validator
from repro.validation.spec import ValidatorSpec, named_validator


@dataclasses.dataclass(frozen=True)
class SnapshotValidation:
    """One snapshot's validation: when it was scanned, probed, and judged."""

    snapshot: int
    time: float
    probed_at: float
    report: ValidationReport


def validate_snapshots(
    campaign: LongitudinalCampaign,
    updates: Sequence[StreamUpdate],
    validator: str | ValidatorSpec = "midar",
    run: ValidationRun | None = None,
    budget: ProbeBudget | None = None,
) -> list[SnapshotValidation]:
    """Run one validator over every snapshot's index-derived sets, each
    probed one campaign interval after its scan.

    Args:
        campaign: the campaign whose polls emitted ``updates`` (its
            network — with all injected churn — is what gets probed).
        updates: one emitted update per snapshot, in poll order.
        validator: a registered validator name or an explicit spec; its
            leaf's ``protocol``/``family`` parameters select which of each
            snapshot's collections provides the candidate sets.
        run: the shared probing state.  Pass the same
            :class:`~repro.validation.runner.ValidationRun` (over
            ``campaign.network``) across several ``validate_snapshots``
            calls so later validators reuse, within each snapshot, the
            banked series of earlier ones; by default each call builds a
            fresh run.
        budget: a :class:`~repro.validation.budget.ProbeBudget` to
            attach for the whole series (one budget across every snapshot);
            by default each snapshot spends from a fresh uncapped one.
            Either way, when the campaign interval exceeds one day (the
            staleness bound) plus the length of one snapshot's probing, as
            the default week does, snapshot N's estimation and pair
            evidence is expired by snapshot N+1's reads and every snapshot
            re-probes live — the churn-driven disagreement mechanism stays
            observable.  At an interval of a day or less, a snapshot reads
            the banked evidence of earlier snapshots still within the
            bound, so it issues fewer fresh probes and sees less of the
            churn since.
    """
    spec = validator if isinstance(validator, ValidatorSpec) else named_validator(validator)
    if run is None:
        run = ValidationRun(campaign.network)
    leaf = spec.leaf()
    previous = run.budget
    if budget is not None:
        run.budget = budget
    rows: list[SnapshotValidation] = []
    try:
        for update in updates:
            time = campaign.config.time_of(update.emit)
            probed_at = time + campaign.config.interval
            candidates = candidate_sets(update.report, leaf)
            report = run_validator(run, spec, candidates=candidates, start_time=probed_at)
            rows.append(
                SnapshotValidation(
                    snapshot=update.emit, time=time, probed_at=probed_at, report=report
                )
            )
    finally:
        run.budget = previous
    return rows
