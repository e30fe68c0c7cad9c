"""Tests for the streaming daemon loop."""

import os
import signal
import threading
import time

import pytest

from repro.core.engine import ResolutionEngine, report_signature
from repro.errors import SimulationError
from repro.longitudinal.campaign import LongitudinalCampaign, LongitudinalConfig
from repro.simnet.topology import generate_topology, small_topology_config
from repro.stream.daemon import DaemonConfig, StreamDaemon
from repro.stream.engine import StreamingEngine


def quiet_network(seed=31):
    config = small_topology_config(
        seed=seed,
        loss_rate=0.0,
        cloud_rate_limited_fraction=0.0,
        isp_rate_limited_fraction=0.0,
        churn_fraction=0.0,
    )
    return generate_topology(config)


def make_campaign(seed=31, snapshots=4, churn=0.05):
    return LongitudinalCampaign(
        quiet_network(seed=seed),
        config=LongitudinalConfig(snapshots=snapshots, churn_fraction=churn, seed=seed),
    )


class TestDaemonConfigValidation:
    def test_zero_max_polls_rejected(self):
        with pytest.raises(SimulationError):
            DaemonConfig(max_polls=0)

    def test_negative_poll_interval_rejected(self):
        with pytest.raises(SimulationError):
            DaemonConfig(poll_interval=-1.0)



class TestDaemonLoop:
    def test_each_poll_emits_one_report(self):
        daemon = StreamDaemon(
            make_campaign(), StreamingEngine(), DaemonConfig(max_polls=3)
        )
        updates = daemon.run()
        assert [u.name for u in updates] == ["snapshot-0", "snapshot-1", "snapshot-2"]
        assert daemon.polls == 3
        assert daemon.stream.emitted == 3

    def test_stop_finishes_current_poll(self):
        daemon = StreamDaemon(
            make_campaign(), StreamingEngine(), DaemonConfig(max_polls=10)
        )
        updates = []
        for update in daemon.updates():
            updates.append(update)
            if len(updates) == 2:
                daemon.stop()
        assert len(updates) == 2
        assert daemon.polls == 2
        assert daemon.stopped

    def test_updates_generator_yields_incrementally(self):
        daemon = StreamDaemon(
            make_campaign(), StreamingEngine(), DaemonConfig(max_polls=5)
        )
        iterator = daemon.updates()
        first = next(iterator)
        assert first.name == "snapshot-0"
        daemon.stop()
        assert list(iterator) == []

    def test_signal_handlers_install_and_restore(self):
        daemon = StreamDaemon(
            make_campaign(), StreamingEngine(), DaemonConfig(max_polls=1)
        )
        before = signal.getsignal(signal.SIGTERM)
        restore = daemon.install_signal_handlers()
        assert signal.getsignal(signal.SIGTERM) == daemon.stop
        assert signal.getsignal(signal.SIGINT) == daemon.stop
        restore()
        assert signal.getsignal(signal.SIGTERM) == before

    def test_checkpoints_every_poll(self):
        saved = []

        class Recorder:
            def save(self, **fields):
                saved.append((fields["completed"], fields["last_name"]))

        daemon = StreamDaemon(
            make_campaign(), StreamingEngine(), DaemonConfig(max_polls=3), Recorder()
        )
        daemon.run()
        assert saved == [(1, "snapshot-0"), (2, "snapshot-1"), (3, "snapshot-2")]

    def test_continues_from_the_stream_position(self):
        # A daemon handed a stream that already served two polls picks up
        # at the third: the stream is the daemon's position.
        campaign, stream = make_campaign(), StreamingEngine()
        StreamDaemon(campaign, stream, DaemonConfig(max_polls=2)).run()
        daemon = StreamDaemon(campaign, stream, DaemonConfig(max_polls=2))
        assert daemon.polls == 2
        assert [u.name for u in daemon.run()] == ["snapshot-2", "snapshot-3"]
        assert daemon.polls == 4

    def test_sigterm_wakes_the_wait_between_polls(self):
        daemon = StreamDaemon(
            make_campaign(),
            StreamingEngine(),
            DaemonConfig(max_polls=3, poll_interval=30.0),
        )
        signalled_at = []

        def terminate():
            signalled_at.append(time.monotonic())
            os.kill(os.getpid(), signal.SIGTERM)

        updates = []
        restore = daemon.install_signal_handlers()
        try:
            for update in daemon.updates():
                updates.append(update)
                threading.Timer(0.1, terminate).start()
        finally:
            restore()
        assert time.monotonic() - signalled_at[0] < 2.0
        assert daemon.stopped and len(updates) == 1

    def test_stop_wakes_the_wait_between_polls(self):
        # A stop requested while the daemon waits out its poll interval
        # (a SIGTERM handler's included) ends the run at once.
        daemon = StreamDaemon(
            make_campaign(),
            StreamingEngine(),
            DaemonConfig(max_polls=3, poll_interval=30.0),
        )
        stopped_at = []

        def stop():
            stopped_at.append(time.monotonic())
            daemon.stop()

        updates = []
        for update in daemon.updates():
            updates.append(update)
            threading.Timer(0.1, stop).start()
        assert time.monotonic() - stopped_at[0] < 2.0
        assert [update.name for update in updates] == ["snapshot-0"]


class TestDaemonEquivalence:
    """A daemon run equals a from-scratch batch resolution of the same scans."""

    def test_daemon_reports_match_batch_campaign(self):
        snapshots = 3
        batch = ResolutionEngine()
        references = [
            batch.resolve(capture.observations, name=capture.name)
            for capture in make_campaign(snapshots=snapshots).collect()
        ]

        daemon = StreamDaemon(
            make_campaign(snapshots=snapshots),
            StreamingEngine(),
            DaemonConfig(max_polls=snapshots),
        )
        updates = daemon.run()
        for reference, update in zip(references, updates, strict=True):
            assert report_signature(update.report) == report_signature(reference)
