"""The poll loop every longitudinal run drives, from a campaign to a daemon.

One poll is one simulated scan: it advances the simnet by one churn
interval through
:meth:`~repro.longitudinal.campaign.LongitudinalCampaign.capture` (churn
injection, both-family scan, ground-truth attribution), syncs the scan
into the :class:`~repro.stream.engine.StreamingEngine`, flushes one
report, records the poll's stability rows when a
:class:`~repro.longitudinal.campaign.CampaignLog` rides along, and
checkpoints.  Every poll emits exactly once, so the stream records the
daemon's position: its emit count is the number of completed polls and
its live observations are the last poll's scan.  ``repro longitudinal``
runs a bounded loop with a log; ``repro serve`` runs one without.

The loop is built to be killed:

* :meth:`StreamDaemon.stop` (or SIGINT/SIGTERM once
  :meth:`StreamDaemon.install_signal_handlers` ran) finishes the poll in
  flight, cuts short the wait before the next one, and exits cleanly;
* a :class:`~repro.persist.stream.StreamCheckpointer` persists a
  consistent state after every poll, so a loop killed between polls
  resumes from its checkpoint to the same reports an uninterrupted run
  produces (``--resume``);
* ``max_polls`` bounds the run for campaigns, smoke tests and CI.

Wall-clock pacing (``poll_interval`` seconds between polls) exists for
running against a terminal as a live demo; tests and benchmarks leave it
at zero and the loop spins as fast as the simnet scans.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
from typing import Iterator

from repro import obs
from repro.errors import SimulationError
from repro.longitudinal.campaign import CampaignLog, LongitudinalCampaign

from repro.stream.engine import StreamingEngine, StreamUpdate


@dataclasses.dataclass(frozen=True)
class DaemonConfig:
    """Shape of a daemon run.

    Attributes:
        max_polls: stop after this many polls (``None`` runs until
            stopped; the CLI default is the campaign's snapshot count).
        poll_interval: wall-clock seconds to wait between polls (live
            pacing; zero polls back-to-back).
    """

    max_polls: int | None = None
    poll_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.max_polls is not None and self.max_polls < 1:
            raise SimulationError("max_polls must be at least 1")
        if self.poll_interval < 0:
            raise SimulationError("poll_interval cannot be negative")


class StreamDaemon:
    """Polls the simnet and feeds the streaming engine until stopped."""

    def __init__(
        self,
        campaign: LongitudinalCampaign,
        stream: StreamingEngine,
        config: DaemonConfig | None = None,
        checkpointer=None,
        log: CampaignLog | None = None,
    ) -> None:
        """Wire a daemon to its event source.

        A resumed daemon takes the campaign and stream that
        :func:`repro.persist.stream.resume_stream` rebuilt, and continues
        after the stream's last emit.  A ``log`` records every poll's
        stability rows before the poll is checkpointed; a checkpointer
        that persists them holds the same log.
        """
        self._campaign = campaign
        self._stream = stream
        self._config = config or DaemonConfig()
        self._checkpointer = checkpointer
        self._log = log
        self._stop = threading.Event()

    @property
    def stream(self) -> StreamingEngine:
        """The streaming engine the daemon feeds."""
        return self._stream

    @property
    def campaign(self) -> LongitudinalCampaign:
        """The simnet event source."""
        return self._campaign

    @property
    def polls(self) -> int:
        """Completed polls (including checkpointed ones on resume)."""
        return self._stream.emitted

    @property
    def stopped(self) -> bool:
        """Whether a stop was requested."""
        return self._stop.is_set()

    def stop(self, *_signal_args) -> None:
        """Request a graceful stop after the poll in flight."""
        self._stop.set()

    def install_signal_handlers(self):
        """Route SIGINT/SIGTERM to :meth:`stop` (main thread only).

        Returns a zero-argument callable restoring the handlers that were
        installed before — run it once the daemon loop exits so an
        in-process caller (the CLI under test, a notebook) gets its
        interrupt behaviour back.
        """
        previous = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        for signum in previous:
            signal.signal(signum, self.stop)

        def restore() -> None:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

        return restore

    def poll_once(self) -> StreamUpdate:
        """Run one poll: capture, sync, flush, log, checkpoint."""
        stream = self._stream
        poll = stream.emitted
        with obs.span("stream.poll", poll=poll):
            capture = self._campaign.capture(poll)
            stream.sync(capture.observations)
            update = stream.flush()
        if self._log is not None:
            self._log.record(self._campaign, capture, update)
        if obs.is_enabled():
            obs.add("stream.polls")
            obs.add("stream.observations", len(capture.observations))
        if self._checkpointer is not None:
            self._checkpointer.save(
                campaign=self._campaign,
                stream=stream,
                completed=stream.emitted,
                last_name=update.name,
                observations=capture.observations,
            )
        return update

    def updates(self) -> Iterator[StreamUpdate]:
        """Poll until stopped, yielding each poll's update.

        The generator form of :meth:`run` — a caller can react to each
        report as it lands (the ``examples/stream_watch.py`` loop) and
        still get graceful-stop and checkpointing semantics.
        """
        completed = 0
        while not self._stop.is_set():
            yield self.poll_once()
            completed += 1
            if completed == self._config.max_polls:
                break
            # An event, not a sleep: stop() — from a signal handler too —
            # ends the wait at once.
            self._stop.wait(self._config.poll_interval)

    def run(self) -> list[StreamUpdate]:
        """Poll until stopped or ``max_polls``; return every update."""
        return list(self.updates())
