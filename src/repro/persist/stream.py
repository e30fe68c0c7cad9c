"""Checkpoint and resume of the streaming resolution daemon.

The daemon (:mod:`repro.stream.daemon`) checkpoints after every poll, so
a killed process resumes exactly where the stream left off: same live
index, same emit sequence, same estimator series, same cumulative event
counts.  Its files, their rotation and the resume rebuild are the
checkpoint chain's (:mod:`repro.persist.chain`): ``poll-NNNN.jsonl`` per
poll (the live index is rebuilt from it on load, and it is the diff
baseline of the next poll), ``bank-NNNN-PPP.json`` when a validation run
rides along, and the ``stream.json`` manifest.  The stream adds to the
manifest its config (``churn_interval``), the emit-window state of the
streaming engine (clock, window accounting, estimator; parsed into an
:class:`~repro.stream.engine.EmitWindow` on load) and the cumulative
published-event counts.

Every poll emits one report labelled ``snapshot-<poll>``, so a loaded
checkpoint must have emitted ``completed`` reports, the last labelled
``snapshot-<completed - 1>``; anything else fails the load.  Window and
config keys that older manifests carry beyond these are ignored.

A resumed daemon's reports equal the uninterrupted run's poll for poll —
the resume gate in ``tests/persist/test_stream_checkpoint.py`` asserts
signature equality.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.errors import PersistError
from repro.longitudinal.campaign import LongitudinalCampaign
from repro.persist.chain import CheckpointChain, LoadedChain, restore_campaign
from repro.sources.records import Observation
from repro.stream.engine import EmitWindow, StreamConfig, StreamingEngine, emit_label
from repro.stream.estimator import ChurnRateEstimator

#: Manifest file name inside a stream checkpoint directory.
STREAM_MANIFEST = "stream.json"


class StreamCheckpointer(CheckpointChain):
    """Persists a resumable daemon state after every completed poll.

    ``keep`` and ``validation_run`` are the chain's
    (:class:`~repro.persist.chain.CheckpointChain`).
    """

    manifest = STREAM_MANIFEST
    step = "poll"
    kind = "stream checkpoint"

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
        self.write(
            campaign,
            stream.engine.index,
            completed,
            last_name,
            observations,
            {
                "stream": dataclasses.asdict(stream.config),
                "window": stream.window_state(),
                "event_counts": dict(stream.publisher.counts),
            },
        )


@dataclasses.dataclass(frozen=True)
class LoadedStreamCheckpoint(LoadedChain):
    """A verified stream checkpoint, ready to resume from.

    Attributes (beyond :class:`~repro.persist.chain.LoadedChain`'s):
        stream: configuration of the streaming engine.
        window: the streaming engine's parsed emit-window state.
        event_counts: cumulative published-event counts at the checkpoint.
    """

    stream: StreamConfig
    window: EmitWindow
    event_counts: dict[str, int]


def _optional_float(value: float | None) -> float | None:
    return None if value is None else float(value)


def _stream_fields(manifest: dict) -> dict:
    window = manifest["window"]
    completed = int(manifest["completed"])
    emitted = int(window["emitted"])
    if emitted != completed:
        raise PersistError(
            f"stream checkpoint emitted {emitted} reports over {completed} polls; "
            "a stream emits one report per poll"
        )
    event_counts = manifest["event_counts"]
    if not isinstance(event_counts, dict):
        raise PersistError(
            f"malformed stream checkpoint manifest: event_counts is not an object ({event_counts!r})"
        )
    expected_name = emit_label(completed - 1)
    if manifest["last_name"] != expected_name:
        raise PersistError(
            f"stream checkpoint's last report is {manifest['last_name']!r}, "
            f"expected {expected_name!r}"
        )
    return {
        "stream": StreamConfig(churn_interval=float(manifest["stream"]["churn_interval"])),
        "window": EmitWindow(
            emitted=emitted,
            clock=float(window["clock"]),
            tracked_at_emit=int(window["tracked_at_emit"]),
            clock_at_emit=_optional_float(window["clock_at_emit"]),
            coverage={
                str(family): int(count)
                for family, count in dict(window["coverage"]).items()
            },
            estimator=ChurnRateEstimator.restore(window["estimator"]),
        ),
        "event_counts": {str(kind): int(count) for kind, count in event_counts.items()},
    }


def load_stream_checkpoint(directory: str | Path) -> LoadedStreamCheckpoint:
    """Load and verify a stream checkpoint.

    Raises:
        PersistError: see :meth:`~repro.persist.chain.CheckpointChain.read`;
            also when the checkpoint did not emit one report per poll.
    """
    return StreamCheckpointer.read(directory, LoadedStreamCheckpoint, _stream_fields)


def resume_stream(
    checkpoint: LoadedStreamCheckpoint,
) -> tuple[LongitudinalCampaign, StreamingEngine]:
    """Rebuild the campaign event source and streaming engine of a checkpoint.

    Returns the campaign (network regenerated, completed churn
    re-injected, IDS probe counters restored) and a streaming engine
    whose live index, emit window, estimator, and cumulative event counts
    equal the interrupted daemon's.  Continue with
    ``StreamDaemon(campaign, stream, ...)``.
    """
    campaign, engine = restore_campaign(checkpoint, checkpoint.campaign)
    stream = StreamingEngine.resume(
        config=checkpoint.stream,
        engine=engine,
        observations=checkpoint.last_observations,
        window=checkpoint.window,
    )
    stream.publisher.counts.update(checkpoint.event_counts)
    return campaign, stream
