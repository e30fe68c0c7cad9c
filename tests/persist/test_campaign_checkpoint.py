"""Campaign checkpoints: stop after snapshot k, resume to k+n, exact parity.

A campaign checkpoints through the poll loop's one writer with its
:class:`~repro.longitudinal.campaign.CampaignLog`, in the campaign layout
(``checkpoint.json`` over ``snapshot-NNNN.jsonl``).
"""

import dataclasses
import json

import pytest
from chain_cases import ContentsCases, ResumeCases, RotationCases, copy_checkpoint

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.core.engine import report_signature
from repro.core.identifiers import IdentifierOptions
from repro.errors import PersistError
from repro.longitudinal.campaign import CampaignLog, LongitudinalCampaign
from repro.net.addresses import AddressFamily
from repro.persist.stream import (
    CAMPAIGN_LAYOUT,
    StreamCheckpointer,
    load_stream_checkpoint,
    resume_stream,
)
from repro.stream.daemon import DaemonConfig, StreamDaemon
from repro.stream.engine import StreamingEngine

_CONFIG = ScenarioConfig(scale=0.05, seed=7)
_SNAPSHOTS = 4
_CHURN = 0.05
CHECKPOINT_MANIFEST = CAMPAIGN_LAYOUT.manifest


def _campaign(snapshots=_SNAPSHOTS):
    return ReproSession(_CONFIG).longitudinal(
        snapshots=snapshots, churn_fraction=_CHURN
    )


def _load(directory):
    return load_stream_checkpoint(directory, CAMPAIGN_LAYOUT)


def _poll(campaign, log, stream=None, checkpointer=None):
    """Poll ``campaign`` to its horizon; return the updates and the stream."""
    stream = stream or StreamingEngine(options=campaign.options)
    polls = campaign.config.snapshots - stream.emitted
    if not polls:
        return [], stream
    daemon = StreamDaemon(
        campaign, stream, DaemonConfig(max_polls=polls), checkpointer=checkpointer, log=log
    )
    return daemon.run(), stream


def _checkpointed(directory, campaign):
    log = CampaignLog()
    checkpointer = StreamCheckpointer(directory, _CONFIG, log=log)
    _poll(campaign, log, checkpointer=checkpointer)


def _resume(checkpoint, snapshots=None, directory=None):
    """Resume ``checkpoint`` to ``snapshots``; return the updates and stream."""
    campaign, stream = resume_stream(checkpoint, snapshots=snapshots)
    checkpointer = None
    if directory is not None:
        checkpointer = StreamCheckpointer(directory, checkpoint.scenario, log=checkpoint.log)
    return _poll(campaign, checkpoint.log, stream=stream, checkpointer=checkpointer)


class CampaignChain:
    """The campaign checkpoint chain, driven for the shared chain cases."""

    manifest = CHECKPOINT_MANIFEST
    step = "snapshot"
    load = staticmethod(_load)

    def run(self, directory, steps):
        _checkpointed(directory, _campaign(snapshots=steps))

    def resume(self, checkpoint, steps, directory=None):
        updates, _ = _resume(checkpoint, steps, directory)
        return [report_signature(update.report) for update in updates]

    @staticmethod
    def signatures(uninterrupted):
        updates, _ = uninterrupted
        return [report_signature(update.report) for update in updates]


@pytest.fixture(scope="module")
def chain():
    return CampaignChain()


@pytest.fixture(scope="module")
def uninterrupted():
    """The reference: one campaign polled start to finish, and its log."""
    log = CampaignLog()
    updates, _ = _poll(_campaign(), log)
    return updates, log


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """A campaign stopped after two snapshots, checkpointing as it goes."""
    directory = tmp_path_factory.mktemp("campaign") / "checkpoint"
    _checkpointed(directory, _campaign(snapshots=2))
    return directory


class TestCheckpointContents(ContentsCases):
    def test_manifest_round_trip(self, checkpoint_dir):
        checkpoint = _load(checkpoint_dir)
        assert checkpoint.completed == 2
        assert checkpoint.last_name == "snapshot-1"
        assert checkpoint.scenario == _CONFIG
        assert checkpoint.campaign.churn_fraction == _CHURN
        assert checkpoint.include_ipv6 is True
        assert len(checkpoint.log.stability[AddressFamily.IPV4]) == 2
        assert len(checkpoint.last_observations) > 0

    def test_stability_rows_restore_as_objects(self, checkpoint_dir, uninterrupted):
        checkpoint = _load(checkpoint_dir)
        _, log = uninterrupted
        for family in (AddressFamily.IPV4, AddressFamily.IPV6):
            assert checkpoint.log.stability[family] == log.stability[family][:2]

    def test_index_rebuilt_with_manifest_options(self, tmp_path):
        options = IdentifierOptions(ssh_include_banner=False, bgp_include_hold_time=False)
        default = _campaign(snapshots=2)
        campaign = LongitudinalCampaign(
            default.network,
            vantage=default.vantage,
            hitlist=default.hitlist,
            config=default.config,
            options=options,
        )
        _checkpointed(tmp_path / "options", campaign)
        checkpoint = _load(tmp_path / "options")
        assert checkpoint.options == options
        assert checkpoint.index.options == options

    @pytest.mark.parametrize("damage", ["missing-field", "not-a-row"])
    def test_malformed_stability_row_fails_load(self, checkpoint_dir, tmp_path, damage):
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "malformed")
        manifest = json.loads((copy / CHECKPOINT_MANIFEST).read_text())
        rows = manifest["stability"]["ipv4"]
        if damage == "missing-field":
            del rows[0]["snapshot"]
        else:
            rows[0] = ["not", "a", "row"]
        (copy / CHECKPOINT_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="malformed campaign checkpoint manifest"):
            _load(copy)


    @pytest.mark.parametrize(
        "key, value", [("stability", None), ("completed", float("inf"))]
    )
    def test_malformed_manifest_value_fails_load(
        self, checkpoint_dir, tmp_path, key, value
    ):
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "malformed")
        manifest = json.loads((copy / CHECKPOINT_MANIFEST).read_text())
        manifest[key] = value
        (copy / CHECKPOINT_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="malformed campaign checkpoint manifest"):
            _load(copy)


class TestResumeParity(ResumeCases):
    def test_resumed_matches_uninterrupted_snapshot_for_snapshot(
        self, checkpoint_dir, uninterrupted
    ):
        checkpoint = _load(checkpoint_dir)
        resumed, _ = _resume(checkpoint, snapshots=_SNAPSHOTS)
        assert len(resumed) == _SNAPSHOTS - checkpoint.completed
        updates, log = uninterrupted
        for update, reference in zip(
            resumed, updates[checkpoint.completed :], strict=True
        ):
            assert report_signature(update.report) == report_signature(
                reference.report
            )
        for family in (AddressFamily.IPV4, AddressFamily.IPV6):
            assert checkpoint.log.stability[family] == log.stability[family]

    def test_resume_continues_checkpointing(self, checkpoint_dir, tmp_path):
        checkpoint = _load(checkpoint_dir)
        target = tmp_path / "continued"
        _resume(checkpoint, snapshots=3, directory=target)
        final = _load(target)
        assert final.completed == 3
        assert len(final.log.stability[AddressFamily.IPV4]) == 3

    def test_resume_parity_within_one_ids_window(self, tmp_path):
        """Snapshots closer together than the IDS rate-limit window.

        The per-(vantage, AS, window) probe counters accumulate across
        same-window snapshots, so they are checkpointed and restored —
        without that, a resumed network would start the next snapshot with
        a clean IDS slate and observe different scan responses than the
        uninterrupted run.
        """
        interval = 0.25 * 86400.0  # four snapshots inside one 1-day window
        config = ScenarioConfig(scale=0.05, seed=3)

        def campaign(horizon):
            return ReproSession(config).longitudinal(
                snapshots=horizon, churn_fraction=_CHURN, interval=interval
            )

        uninterrupted, uninterrupted_stream = _poll(campaign(2), CampaignLog())
        directory = tmp_path / "subwindow"
        log = CampaignLog()
        _poll(campaign(1), log, checkpointer=StreamCheckpointer(directory, config, log=log))
        checkpoint = _load(directory)
        assert checkpoint.probe_counts  # same-window counters were persisted
        resumed, resumed_stream = _resume(checkpoint, snapshots=2)
        assert list(resumed_stream.live_observations()) == list(
            uninterrupted_stream.live_observations()
        )
        assert report_signature(resumed[0].report) == report_signature(
            uninterrupted[1].report
        )

    def test_manifest_without_window_resumes_like_uninterrupted(
        self, checkpoint_dir, tmp_path, uninterrupted
    ):
        """A campaign checkpoint written before campaigns ran on the poll
        loop holds no window and no event counts: it loads with no
        estimator history and no emitted events, resumes with the clock
        at its last scan, and the resumed reports and rows equal the
        uninterrupted run's."""
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "windowless")
        manifest = json.loads((copy / CHECKPOINT_MANIFEST).read_text())
        clock = manifest.pop("window")["clock"]
        del manifest["event_counts"]
        (copy / CHECKPOINT_MANIFEST).write_text(json.dumps(manifest))
        checkpoint = _load(copy)
        assert checkpoint.clock == clock
        assert checkpoint.estimator.windows == 0
        assert checkpoint.event_counts == {}

        campaign, stream = resume_stream(checkpoint, snapshots=_SNAPSHOTS)
        assert stream.clock == clock
        assert stream.estimator.windows == 0
        assert stream.estimator.interval == campaign.config.interval
        assert stream.event_counts == {}

        resumed, _ = _poll(campaign, checkpoint.log, stream=stream)
        updates, log = uninterrupted
        assert [report_signature(update.report) for update in resumed] == [
            report_signature(update.report) for update in updates[checkpoint.completed :]
        ]
        for family in (AddressFamily.IPV4, AddressFamily.IPV6):
            assert checkpoint.log.stability[family] == log.stability[family]
        assert checkpoint.log.metric_series == log.metric_series

    def test_resume_below_completed_raises(self, checkpoint_dir):
        checkpoint = _load(checkpoint_dir)
        with pytest.raises(PersistError, match="already completed"):
            resume_stream(checkpoint, snapshots=1)

    def test_resume_with_nothing_to_do(self, checkpoint_dir):
        checkpoint = _load(checkpoint_dir)
        updates, stream = _resume(checkpoint)
        assert updates == []
        assert stream.emitted == checkpoint.completed
        assert stream.report is not None


class TestRunInterleaving:
    def test_snapshots_override_recorded_in_manifest(self, checkpoint_dir, tmp_path):
        checkpoint = _load(checkpoint_dir)
        campaign, _ = resume_stream(checkpoint, snapshots=3)
        assert campaign.config == dataclasses.replace(checkpoint.campaign, snapshots=3)


class TestCheckpointRotation(RotationCases):
    def test_default_keeps_only_newest(self, checkpoint_dir):
        assert sorted(p.name for p in checkpoint_dir.glob("index-*")) == []
        assert sorted(p.name for p in checkpoint_dir.glob("snapshot-*.jsonl")) == [
            "snapshot-0002.jsonl"
        ]
