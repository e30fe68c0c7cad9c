"""Checkpoint and resume of the poll loop, for campaigns and daemons alike.

The poll loop (:mod:`repro.stream.daemon`) checkpoints after every poll,
so a killed process resumes exactly where the stream left off: same live
index, same emit sequence, same estimator series, same cumulative event
counts.  ``repro longitudinal`` and ``repro serve`` write through the same
:class:`StreamCheckpointer` and resume through the same
:func:`load_stream_checkpoint` and :func:`resume_stream`; each keeps its
own on-disk names (:data:`CAMPAIGN_LAYOUT`, :data:`STREAM_LAYOUT`).  The
files, their rotation and the resume rebuild are the checkpoint chain's
(:mod:`repro.persist.chain`): ``<step>-NNNN.jsonl`` per poll (the live
index is rebuilt from it on load, and it is the diff baseline of the next
poll), ``<manifest stem>-NNNN.json`` per poll, and the manifest: a link
to the newest of those.

The manifest adds the streaming engine's emit window (its clock and
estimator; parsed into an :class:`~repro.stream.engine.EmitWindow` on
load) and the cumulative published-event counts.  A campaign checkpoint
also carries its :class:`~repro.longitudinal.campaign.CampaignLog`: the
stability rows of both families and the metric series.  A daemon's
carries no log, or its manifest would grow by a row every poll.  The
reader requires only the keys every campaign and stream manifest ever
held: a campaign checkpoint without a window or event counts never ran
an estimator or published an event, and resumes in exactly that state.
Other keys older manifests carry are ignored.

Every poll emits one report labelled ``snapshot-<poll>``, so a loaded
checkpoint has emitted ``completed`` reports, the last labelled
``snapshot-<completed - 1>``; a manifest naming another label fails the
load.  A resumed loop's reports equal the uninterrupted run's poll for
poll — the resume gates in ``tests/persist/`` assert signature equality.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

from repro.api.config import ScenarioConfig
from repro.errors import PersistError
from repro.jsonvalues import json_count, json_number
from repro.longitudinal.campaign import CampaignLog, LongitudinalCampaign, SnapshotStability
from repro.net.addresses import AddressFamily
from repro.persist.chain import ChainLayout, CheckpointChain, LoadedChain, read_field, restore_campaign
from repro.sources.records import Observation
from repro.stream.engine import EmitWindow, StreamingEngine, emit_label
from repro.stream.estimator import ChurnRateEstimator

#: ``repro serve``'s checkpoint directory: ``stream.json`` over ``poll-NNNN.jsonl``.
STREAM_LAYOUT = ChainLayout(manifest="stream.json", step="poll", kind="stream checkpoint")

#: ``repro longitudinal``'s checkpoint directory: ``checkpoint.json`` over
#: ``snapshot-NNNN.jsonl``.
CAMPAIGN_LAYOUT = ChainLayout(
    manifest="checkpoint.json", step="snapshot", kind="campaign checkpoint"
)


class StreamCheckpointer(CheckpointChain):
    """Persists a resumable poll-loop state after every completed poll.

    With a ``log`` — the one the loop records into — the checkpointer
    writes the campaign layout and adds the log's rows to the manifest.
    ``keep`` is the chain's (:class:`~repro.persist.chain.CheckpointChain`).
    """

    def __init__(
        self,
        directory: str | Path,
        scenario: ScenarioConfig,
        keep: int = 1,
        log: CampaignLog | None = None,
    ) -> None:
        layout = STREAM_LAYOUT if log is None else CAMPAIGN_LAYOUT
        super().__init__(directory, scenario, layout, keep=keep)
        self.log = log

    def save(
        self,
        campaign: LongitudinalCampaign,
        stream: StreamingEngine,
        completed: int,
        last_name: str,
        observations: tuple[Observation, ...],
    ) -> None:
        """Write the checkpoint after poll ``completed - 1`` emitted.

        ``observations`` are the poll's scan results — the diff baseline
        the first resumed poll syncs against.  ``completed`` and
        ``last_name`` must be the stream's emit count and last label,
        which the loader checks.
        """
        fields = {
            "window": stream.window_state(),
            "event_counts": dict(stream.publisher.counts),
        }
        if self.log is not None:
            fields["stability"] = {
                family.value: [dataclasses.asdict(row) for row in rows]
                for family, rows in self.log.stability.items()
            }
            fields["metric_series"] = self.log.metric_series
        self.write(campaign, stream.engine.index, completed, last_name, observations, fields)


@dataclasses.dataclass(frozen=True)
class LoadedStreamCheckpoint(LoadedChain):
    """A verified poll-loop checkpoint, ready to resume from.

    Attributes (beyond :class:`~repro.persist.chain.LoadedChain`'s):
        window: the streaming engine's parsed emit window, or ``None`` for
            a campaign checkpoint whose loop never ran an estimator.
        event_counts: cumulative published-event counts at the checkpoint.
        log: the campaign's stability rows and metric series (campaign
            layout only).
    """

    window: EmitWindow | None
    event_counts: dict[str, int]
    log: CampaignLog | None


def _window(layout: ChainLayout, window: dict) -> EmitWindow:
    clock = read_field(window["clock"], json_number, "window clock", f"{layout.kind} manifest")
    return EmitWindow(clock=clock, estimator=ChurnRateEstimator.restore(window["estimator"]))


def _log(manifest: dict) -> CampaignLog:
    stability = manifest["stability"]
    if not isinstance(stability, dict):
        raise PersistError(
            f"malformed campaign checkpoint manifest: stability is not an object ({stability!r})"
        )
    return CampaignLog(
        stability={
            family: [SnapshotStability(**row) for row in stability.get(family.value, ())]
            for family in (AddressFamily.IPV4, AddressFamily.IPV6)
        },
        metric_series=[dict(row) for row in manifest.get("metric_series", ())],
    )


def _stream_fields(layout: ChainLayout, manifest: dict) -> dict:
    completed = int(manifest["completed"])
    expected_name = emit_label(completed - 1)
    if manifest["last_name"] != expected_name:
        raise PersistError(
            f"{layout.kind}'s last report is {manifest['last_name']!r}, "
            f"expected {expected_name!r}"
        )
    event_counts = manifest.get("event_counts", {})
    if not isinstance(event_counts, dict):
        raise PersistError(
            f"malformed {layout.kind} manifest: event_counts is not an object ({event_counts!r})"
        )
    window = manifest.get("window")
    return {
        "window": None if window is None else _window(layout, window),
        "event_counts": {
            kind: read_field(count, json_count, f"event_counts {kind!r}", f"{layout.kind} manifest")
            for kind, count in event_counts.items()
        },
        "log": _log(manifest) if layout == CAMPAIGN_LAYOUT else None,
    }


def load_stream_checkpoint(
    directory: str | Path, layout: ChainLayout = STREAM_LAYOUT
) -> LoadedStreamCheckpoint:
    """Load and verify the checkpoint ``layout`` names in ``directory``.

    Raises:
        PersistError: see :meth:`~repro.persist.chain.CheckpointChain.read`;
            also when the last report is not the last poll's, or a window
            or log value is malformed or out of range.
    """
    return CheckpointChain.read(
        directory,
        layout,
        LoadedStreamCheckpoint,
        functools.partial(_stream_fields, layout),
    )


def resume_stream(
    checkpoint: LoadedStreamCheckpoint, snapshots: int | None = None
) -> tuple[LongitudinalCampaign, StreamingEngine]:
    """Rebuild the campaign event source and streaming engine of a checkpoint.

    ``snapshots`` extends (or sets) the campaign's total snapshot count —
    resuming with the stored count finishes the interrupted campaign; a
    larger count keeps measuring past the original horizon.  Returns the
    campaign (network regenerated, completed churn re-injected, IDS probe
    counters restored) and a streaming engine whose live index, emit
    window, estimator, and cumulative event counts equal the interrupted
    loop's.  Continue with ``StreamDaemon(campaign, stream, ...)``.

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
    campaign, engine = restore_campaign(checkpoint, config)
    window = checkpoint.window or EmitWindow(
        clock=max((o.timestamp for o in checkpoint.last_observations), default=0.0),
        estimator=ChurnRateEstimator(interval=config.interval),
    )
    stream = StreamingEngine.resume(
        engine, checkpoint.last_observations, checkpoint.completed, window
    )
    stream.publisher.counts.update(checkpoint.event_counts)
    return campaign, stream
