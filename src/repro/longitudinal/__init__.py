"""Longitudinal resolution: multi-snapshot campaigns over one live index.

The subsystem has three layers:

* :mod:`repro.longitudinal.delta` — observation- and alias-set-level
  diffing between snapshots,
* :mod:`repro.longitudinal.engine` — the
  :class:`~repro.longitudinal.engine.LongitudinalEngine`, which stages
  observation deltas on a live
  :class:`~repro.core.engine.ObservationIndex` and derives each report
  from it with :meth:`~repro.core.engine.ResolutionEngine.report`, and
* :mod:`repro.longitudinal.campaign` — the
  :class:`~repro.longitudinal.campaign.LongitudinalCampaign` event source
  that injects churn and scans one snapshot per poll, and the
  :class:`~repro.longitudinal.campaign.CampaignLog` of per-snapshot
  stability metrics.

The loop that joins them is the stream's poll
(:class:`~repro.stream.daemon.StreamDaemon`): capture, sync, flush,
checkpoint.
"""

from repro.longitudinal.campaign import (
    CampaignLog,
    LongitudinalCampaign,
    LongitudinalConfig,
    SnapshotCapture,
    SnapshotStability,
)
from repro.longitudinal.delta import (
    AliasDelta,
    ObservationDelta,
    diff_alias_sets,
    diff_observations,
)
from repro.longitudinal.engine import IncrementalResolution, LongitudinalEngine

__all__ = [
    "AliasDelta",
    "CampaignLog",
    "IncrementalResolution",
    "LongitudinalCampaign",
    "LongitudinalConfig",
    "LongitudinalEngine",
    "ObservationDelta",
    "SnapshotCapture",
    "SnapshotStability",
    "diff_alias_sets",
    "diff_observations",
]
