"""Checkpoint and resume of the streaming resolution daemon.

The daemon (:mod:`repro.stream.daemon`) checkpoints after every emit, so
a killed process resumes exactly where the stream left off: same live
index, same emit sequence, same estimator series, same cumulative event
counts.  Its files, their rotation and the resume rebuild are the
checkpoint chain's (:mod:`repro.persist.chain`): ``poll-NNNN.jsonl`` per
poll (the live index is rebuilt from it on load),
``bank-NNNN-PPP.json`` when a validation run rides along, and the
``stream.json`` manifest.  The stream adds to the manifest its
emit-trigger config, the emit-window state of the streaming engine
(clock, emit boundaries, estimator; parsed into an
:class:`~repro.stream.engine.EmitWindow` on load) and the cumulative
published-event counts.

A resumed daemon's reports equal the uninterrupted run's poll for poll —
the resume gate in ``tests/persist/test_stream_checkpoint.py`` asserts
signature equality.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.longitudinal.campaign import LongitudinalCampaign
from repro.persist.chain import CheckpointChain, LoadedChain, restore_campaign
from repro.sources.records import Observation
from repro.stream.engine import EmitWindow, StreamConfig, StreamingEngine
from repro.stream.estimator import ChurnRateEstimator
from repro.stream.events import StreamPublisher

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
        the first resumed poll syncs against.
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
        stream: emit-trigger configuration of the streaming engine.
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
    return {
        "stream": StreamConfig(**manifest["stream"]),
        "window": EmitWindow(
            emitted=int(window["emitted"]),
            clock=float(window["clock"]),
            epoch=_optional_float(window["epoch"]),
            next_emit_clock=_optional_float(window["next_emit_clock"]),
            tracked_at_emit=int(window["tracked_at_emit"]),
            clock_at_emit=_optional_float(window["clock_at_emit"]),
            coverage={
                str(family): int(count)
                for family, count in dict(window["coverage"]).items()
            },
            estimator=ChurnRateEstimator.restore(window["estimator"]),
        ),
        "event_counts": {
            str(kind): int(count) for kind, count in manifest["event_counts"].items()
        },
    }


def load_stream_checkpoint(directory: str | Path) -> LoadedStreamCheckpoint:
    """Load and verify a stream checkpoint.

    Raises:
        PersistError: see :meth:`~repro.persist.chain.CheckpointChain.read`.
    """
    return StreamCheckpointer.read(directory, LoadedStreamCheckpoint, _stream_fields)


def resume_stream(
    checkpoint: LoadedStreamCheckpoint,
    publisher: StreamPublisher | None = None,
) -> tuple[LongitudinalCampaign, StreamingEngine]:
    """Rebuild the campaign event source and streaming engine of a checkpoint.

    Returns the campaign (network regenerated, completed churn
    re-injected, IDS probe counters restored) and a streaming engine
    whose live index, emit window, estimator, and cumulative event counts
    equal the interrupted daemon's.  Continue with::

        daemon = StreamDaemon(campaign, stream, start=checkpoint.completed,
                              previous=checkpoint.last_observations, ...)
    """
    campaign, engine = restore_campaign(checkpoint, checkpoint.campaign)
    stream = StreamingEngine.resume(
        config=checkpoint.stream,
        engine=engine,
        observations=checkpoint.last_observations,
        window=checkpoint.window,
        options=checkpoint.options,
        publisher=publisher,
    )
    stream.publisher.counts.update(checkpoint.event_counts)
    return campaign, stream
