"""Checkpoint and resume of longitudinal campaigns.

A checkpoint directory lets a ``repro longitudinal`` campaign stop after
snapshot *k* and resume to *k+n* in another process with incremental
re-resolution intact.  Its files, their rotation and the resume rebuild
are the checkpoint chain's (:mod:`repro.persist.chain`):
``snapshot-NNNN.jsonl`` per snapshot (the live index is rebuilt from it on
load), ``bank-NNNN-PPP.json`` when a validation run rides along, and the
``checkpoint.json`` manifest.  The campaign adds to the manifest the
accumulated per-snapshot stability rows of both families (parsed into
:class:`~repro.longitudinal.campaign.SnapshotStability` rows on load) and
the per-snapshot metric series.

The resumed engine continues applying deltas against the rebuilt index,
so a resumed campaign matches the uninterrupted one snapshot for snapshot.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.api.config import ScenarioConfig
from repro.errors import PersistError
from repro.longitudinal.campaign import (
    LongitudinalCampaign,
    SnapshotResolution,
    SnapshotStability,
    snapshot_metrics_row,
)
from repro.longitudinal.engine import LongitudinalEngine
from repro.net.addresses import AddressFamily
from repro.persist.chain import CheckpointChain, LoadedChain, restore_campaign

#: Manifest file name inside a checkpoint directory.
CHECKPOINT_MANIFEST = "checkpoint.json"

#: Family tags under which stability rows are stored in the manifest.
_FAMILY_TAGS = {AddressFamily.IPV4: "ipv4", AddressFamily.IPV6: "ipv6"}


class CampaignCheckpointer(CheckpointChain):
    """Persists a resumable campaign state after every resolved snapshot.

    Pass one to :meth:`~repro.longitudinal.campaign.LongitudinalCampaign.run`;
    it checkpoints the directory after each snapshot, accumulating the
    stability rows of every snapshot seen (including, on resume, the rows a
    loaded checkpoint already carried).  ``keep`` and ``validation_run``
    are the chain's (:class:`~repro.persist.chain.CheckpointChain`).
    """

    manifest = CHECKPOINT_MANIFEST
    step = "snapshot"
    kind = "campaign checkpoint"

    def __init__(
        self,
        directory: str | Path,
        scenario: ScenarioConfig,
        prior_stability: dict[str, list[SnapshotStability]] | None = None,
        keep: int = 1,
        prior_metric_series: list[dict] | None = None,
        validation_run=None,
    ) -> None:
        super().__init__(directory, scenario, keep=keep, validation_run=validation_run)
        self._stability: dict[str, list[dict]] = {
            tag: [dataclasses.asdict(row) for row in (prior_stability or {}).get(tag, ())]
            for tag in _FAMILY_TAGS.values()
        }
        self._metric_series: list[dict] = list(prior_metric_series or ())

    @property
    def metric_series(self) -> list[dict]:
        """The accumulated per-snapshot metric rows (shared, read-only).

        One :func:`~repro.longitudinal.campaign.snapshot_metrics_row` per
        saved snapshot, prior rows from a loaded checkpoint included.  The
        rows are computed from deterministic campaign state regardless of
        whether observability is enabled, so a resumed campaign's persisted
        series equals the uninterrupted run's snapshot-for-snapshot.
        """
        return self._metric_series

    def save(
        self,
        campaign: LongitudinalCampaign,
        engine: LongitudinalEngine,
        resolved: SnapshotResolution,
    ) -> None:
        """Write the checkpoint for one freshly resolved snapshot."""
        for family, tag in _FAMILY_TAGS.items():
            self._stability[tag].append(dataclasses.asdict(resolved.stability(family)))
        self._metric_series.append(snapshot_metrics_row(campaign, resolved))
        capture = resolved.capture
        self.write(
            campaign,
            engine.index,
            capture.index + 1,
            capture.name,
            capture.observations,
            {"stability": self._stability, "metric_series": self._metric_series},
        )


@dataclasses.dataclass(frozen=True)
class LoadedCheckpoint(LoadedChain):
    """A verified campaign checkpoint, ready to resume from.

    Attributes (beyond :class:`~repro.persist.chain.LoadedChain`'s):
        stability: per-family stability rows of the completed snapshots,
            keyed by family tag (feed back into a checkpointer on resume).
        metric_series: per-snapshot metric rows of the completed snapshots
            (:func:`~repro.longitudinal.campaign.snapshot_metrics_row`);
            feed back into a checkpointer on resume so the persisted series
            stays equal to an uninterrupted run's.
    """

    stability: dict[str, list[SnapshotStability]]
    metric_series: list[dict]

    def stability_rows(self, family: AddressFamily) -> list[SnapshotStability]:
        """The completed snapshots' stability metrics for one family."""
        return list(self.stability[_FAMILY_TAGS[family]])


def _campaign_fields(manifest: dict) -> dict:
    stability = manifest["stability"]
    if not isinstance(stability, dict):
        raise PersistError(
            f"malformed campaign checkpoint manifest: stability is not an object ({stability!r})"
        )
    return {
        "stability": {
            tag: [SnapshotStability(**row) for row in stability.get(tag, ())]
            for tag in _FAMILY_TAGS.values()
        },
        "metric_series": [dict(row) for row in manifest.get("metric_series", ())],
    }


def load_checkpoint(directory: str | Path) -> LoadedCheckpoint:
    """Load and verify a campaign checkpoint.

    Raises:
        PersistError: see :meth:`~repro.persist.chain.CheckpointChain.read`.
    """
    return CampaignCheckpointer.read(directory, LoadedCheckpoint, _campaign_fields)


def resume_campaign(
    checkpoint: LoadedCheckpoint, snapshots: int | None = None
) -> tuple[LongitudinalCampaign, LongitudinalEngine]:
    """Rebuild the campaign and engine a checkpoint describes.

    ``snapshots`` extends (or sets) the campaign's total snapshot count —
    resuming with the stored count finishes the interrupted run; a larger
    count keeps measuring past the original horizon.  Returns the campaign
    (network regenerated, completed churn re-injected) and the restored
    engine; continue with::

        campaign.run(start=checkpoint.completed,
                     previous=checkpoint.last_observations,
                     engine=engine)

    Raises:
        PersistError: when ``snapshots`` is smaller than the completed count.
    """
    config = checkpoint.campaign
    if snapshots is not None:
        if snapshots < checkpoint.completed:
            raise PersistError(
                f"cannot resume to {snapshots} snapshots: "
                f"{checkpoint.completed} already completed"
            )
        config = dataclasses.replace(config, snapshots=snapshots)
    return restore_campaign(checkpoint, config)
