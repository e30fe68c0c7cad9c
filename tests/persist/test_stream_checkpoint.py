"""Stream checkpoints: kill the daemon mid-stream, resume, exact parity."""

import json

import pytest
from chain_cases import ContentsCases, ResumeCases, RotationCases, copy_checkpoint

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.core.engine import report_signature
from repro.core.identifiers import count_extractions
from repro.errors import PersistError
from repro.persist.stream import (
    STREAM_LAYOUT,
    StreamCheckpointer,
    load_stream_checkpoint,
    resume_stream,
)
from repro.stream.daemon import DaemonConfig, StreamDaemon
from repro.stream.engine import StreamConfig, StreamingEngine

_CONFIG = ScenarioConfig(scale=0.05, seed=7)
STREAM_MANIFEST = STREAM_LAYOUT.manifest
_POLLS = 4
_CHURN = 0.05


def _campaign(snapshots=_POLLS):
    return ReproSession(_CONFIG).longitudinal(
        snapshots=snapshots, churn_fraction=_CHURN
    )


def _daemon(campaign, polls, checkpointer=None, stream=None):
    return StreamDaemon(
        campaign,
        stream or StreamingEngine(StreamConfig(), options=campaign.options),
        config=DaemonConfig(max_polls=polls),
        checkpointer=checkpointer,
    )


def _extractions_per_poll(daemon):
    """Each poll's identifier extractions and update, in poll order."""
    polls = []
    updates = daemon.updates()
    while True:
        with count_extractions() as extractions:
            update = next(updates, None)
        if update is None:
            return polls
        polls.append((extractions.count, update))


class StreamChain:
    """The stream checkpoint chain, driven for the shared chain cases."""

    manifest = STREAM_MANIFEST
    step = "poll"
    load = staticmethod(load_stream_checkpoint)

    def run(self, directory, steps):
        checkpointer = StreamCheckpointer(directory, _CONFIG)
        _daemon(_campaign(), steps, checkpointer=checkpointer).run()

    def resume(self, checkpoint, steps, directory=None):
        campaign, stream = resume_stream(checkpoint)
        checkpointer = None
        if directory is not None:
            checkpointer = StreamCheckpointer(directory, checkpoint.scenario)
        updates = _daemon(
            campaign,
            steps - checkpoint.completed,
            checkpointer=checkpointer,
            stream=stream,
        ).run()
        return [report_signature(update.report) for update in updates]

    @staticmethod
    def signatures(uninterrupted):
        updates, _ = uninterrupted
        return [report_signature(update.report) for update in updates]


#: Every emit-window entry a resume reads, estimator state included.
_WINDOW_FIELDS = [
    "clock",
    "estimator",
    "estimator.interval",
    "estimator.window",
    "estimator.rate",
    "estimator.windows",
]

#: Marks a window entry the malformed-window cases delete.
_MISSING = "<missing>"


@pytest.fixture(scope="module")
def chain():
    return StreamChain()


@pytest.fixture(scope="module")
def uninterrupted():
    """The reference: one daemon run start to finish, no checkpointing."""
    daemon = _daemon(_campaign(), _POLLS)
    updates = daemon.run()
    return updates, daemon.stream


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """A daemon killed after two of four polls, checkpointing as it went."""
    directory = tmp_path_factory.mktemp("stream") / "checkpoint"
    campaign = _campaign()
    daemon = _daemon(campaign, 2, checkpointer=StreamCheckpointer(directory, _CONFIG))
    daemon.run()
    return directory


class TestCheckpointContents(ContentsCases):
    def test_manifest_round_trip(self, checkpoint_dir):
        checkpoint = load_stream_checkpoint(checkpoint_dir)
        assert checkpoint.completed == 2
        assert checkpoint.last_name == "snapshot-1"
        assert checkpoint.scenario == _CONFIG
        assert checkpoint.campaign.churn_fraction == _CHURN
        assert checkpoint.estimator.interval == StreamConfig().churn_interval
        assert checkpoint.include_ipv6 is True
        assert checkpoint.event_counts["report.emitted"] == 2
        assert checkpoint.log is None
        assert len(checkpoint.last_observations) > 0
        # The malformed-window cases below cover every entry written.
        window = json.loads((checkpoint_dir / STREAM_MANIFEST).read_text())["window"]
        assert set(window) | {f"estimator.{key}" for key in window["estimator"]} == set(
            _WINDOW_FIELDS
        )

    def test_rotation_keeps_only_newest(self, checkpoint_dir):
        assert sorted(p.name for p in checkpoint_dir.glob("index-*")) == []
        assert sorted(p.name for p in checkpoint_dir.glob("poll-*.jsonl")) == [
            "poll-0002.jsonl"
        ]

    @pytest.mark.parametrize(
        "field, value",
        [(field, _MISSING) for field in _WINDOW_FIELDS]
        + [
            ("clock", None),
            ("clock", float("nan")),
            ("estimator", "ewma"),
            ("estimator.interval", 0),
            ("estimator.interval", float("nan")),
            ("estimator.interval", float("inf")),
            ("estimator.window", 0),
            ("estimator.rate", "fast"),
            ("estimator.rate", float("inf")),
            ("estimator.windows", -1),
        ],
    )
    def test_malformed_window_fails_load(self, checkpoint_dir, tmp_path, field, value):
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "malformed")
        manifest = json.loads((copy / STREAM_MANIFEST).read_text())
        window = manifest["window"]
        if field.startswith("estimator."):
            window, field = window["estimator"], field.partition(".")[2]
        if value == _MISSING:
            del window[field]
        else:
            window[field] = value
        (copy / STREAM_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="malformed stream checkpoint manifest"):
            load_stream_checkpoint(copy)

    @pytest.mark.parametrize(
        "vantage",
        [
            "active-vp",
            {"name": "active-vp", "address": "192.0.2.250"},
            {"name": "active-vp", "address": "192.0.2.250", "distributed": False, "port": 1},
        ],
        ids=["not-an-object", "field-missing", "field-unknown"],
    )
    def test_malformed_vantage_fails_load(self, checkpoint_dir, tmp_path, vantage):
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "malformed")
        manifest = json.loads((copy / STREAM_MANIFEST).read_text())
        manifest["vantage"] = vantage
        (copy / STREAM_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(
            PersistError,
            match="malformed stream checkpoint manifest .*: vantage .* is not an object of name, address and distributed",
        ):
            load_stream_checkpoint(copy)

    def test_legacy_manifest_keys_are_ignored(self, checkpoint_dir, tmp_path, uninterrupted):
        """Older manifests carry a stream config (trigger knobs, and a churn
        interval that the estimator's own interval supersedes) and window
        entries a resume now derives; whatever those hold, the checkpoint
        loads and resumes like the uninterrupted run."""
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "legacy")
        manifest = json.loads((copy / STREAM_MANIFEST).read_text())
        manifest["stream"] = {
            "churn_interval": 0,
            "emit_every_changes": 5,
            "emit_every_seconds": None,
            "name_format": "snapshot-{}",
            "estimator_window": 8,
        }
        manifest["window"].update(
            emitted="two",
            tracked_at_emit=None,
            clock_at_emit="later",
            coverage=[1, 2],
            epoch=0.0,
            next_emit_clock=None,
        )
        (copy / STREAM_MANIFEST).write_text(json.dumps(manifest))
        checkpoint = load_stream_checkpoint(copy)
        assert checkpoint.estimator.interval == StreamConfig().churn_interval
        reference_updates, _ = uninterrupted
        campaign, stream = resume_stream(checkpoint)
        resumed = _daemon(campaign, _POLLS - checkpoint.completed, stream=stream).run()
        assert [report_signature(update.report) for update in resumed] == [
            report_signature(update.report)
            for update in reference_updates[checkpoint.completed :]
        ]

    @pytest.mark.parametrize(
        "entry, value",
        [("completed", 3), ("completed", 1), ("last_name", "live-1")],
        ids=["emitted-ahead", "emitted-behind", "foreign-label"],
    )
    def test_one_emit_per_poll_enforced(self, checkpoint_dir, tmp_path, entry, value):
        """Every poll emits one ``snapshot-<poll>`` report, so the emit count
        is the completed poll count: a checkpoint whose count or last label
        says otherwise fails the load."""
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "foreign")
        manifest = json.loads((copy / STREAM_MANIFEST).read_text())
        manifest[entry] = value
        (copy / STREAM_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="last report is '[^']*', expected 'snapshot-"):
            load_stream_checkpoint(copy)


class TestResumeGate(ResumeCases):
    """The resume gate: killed + resumed == uninterrupted, byte for byte."""

    def test_resumed_daemon_matches_uninterrupted(self, checkpoint_dir, uninterrupted):
        reference_updates, reference_stream = uninterrupted
        checkpoint = load_stream_checkpoint(checkpoint_dir)
        campaign, stream = resume_stream(checkpoint)
        daemon = _daemon(
            campaign,
            _POLLS - checkpoint.completed,
            stream=stream,
        )
        resumed_updates = daemon.run()
        assert [u.name for u in resumed_updates] == ["snapshot-2", "snapshot-3"]
        for update, reference in zip(
            resumed_updates,
            reference_updates[checkpoint.completed :],
            strict=True,
        ):
            assert report_signature(update.report) == report_signature(
                reference.report
            )
        # Cumulative event counts converge to the uninterrupted run's.
        assert stream.event_counts == reference_stream.event_counts
        # The estimator series continues as if never interrupted.
        assert stream.estimator.rate == pytest.approx(
            reference_stream.estimator.rate
        )
        assert stream.estimator.windows == reference_stream.estimator.windows

    def test_resumed_loop_extracts_as_many_identifiers_per_poll(self, checkpoint_dir):
        # A poll's work depends on its delta, not on the process's history:
        # each replay extracts every added and every removed observation's
        # identifier once, so a loop resumed after two polls extracts what
        # the uninterrupted loop does for the same polls.
        uninterrupted = _extractions_per_poll(_daemon(_campaign(), _POLLS))
        for count, update in uninterrupted:
            report = update.events[-1]
            assert count == report.added + report.removed
        checkpoint = load_stream_checkpoint(checkpoint_dir)
        campaign, stream = resume_stream(checkpoint)
        resumed = _extractions_per_poll(
            _daemon(campaign, _POLLS - checkpoint.completed, stream=stream)
        )
        assert [update.name for _, update in resumed] == ["snapshot-2", "snapshot-3"]
        assert [count for count, _ in resumed] == [
            count for count, _ in uninterrupted[checkpoint.completed :]
        ]

    def test_resume_continues_checkpointing(self, checkpoint_dir, tmp_path):
        checkpoint = load_stream_checkpoint(checkpoint_dir)
        campaign, stream = resume_stream(checkpoint)
        target = tmp_path / "continued"
        daemon = _daemon(
            campaign,
            1,
            checkpointer=StreamCheckpointer(target, checkpoint.scenario),
            stream=stream,
        )
        daemon.run()
        final = load_stream_checkpoint(target)
        assert final.completed == 3
        assert final.event_counts["report.emitted"] == 3


class TestCheckpointRotation(RotationCases):
    """Rotation of the poll generations (the cases shared with campaigns)."""
