"""The persisted campaign metric series: determinism and resume equality."""

import json

import pytest

from repro import obs
from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.longitudinal.campaign import CAMPAIGN_SERIES, CampaignLog
from repro.persist.stream import (
    CAMPAIGN_LAYOUT,
    StreamCheckpointer,
    load_stream_checkpoint,
    resume_stream,
)
from repro.stream.daemon import DaemonConfig, StreamDaemon
from repro.stream.engine import StreamingEngine

_CONFIG = ScenarioConfig(scale=0.05, seed=3)
_SNAPSHOTS = 3


def _campaign(snapshots=_SNAPSHOTS):
    return ReproSession(_CONFIG).longitudinal(
        snapshots=snapshots, churn_fraction=0.02, include_ipv6=False
    )


def _poll(campaign, log, directory=None, stream=None):
    """Poll ``campaign`` to its horizon, checkpointing into ``directory``."""
    stream = stream or StreamingEngine(options=campaign.options)
    checkpointer = None
    if directory is not None:
        checkpointer = StreamCheckpointer(directory, _CONFIG, log=log)
    StreamDaemon(
        campaign,
        stream,
        DaemonConfig(max_polls=campaign.config.snapshots - stream.emitted),
        checkpointer=checkpointer,
        log=log,
    ).run()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    directory = tmp_path_factory.mktemp("full")
    log = CampaignLog()
    _poll(_campaign(), log, directory)
    return directory, log


class TestMetricSeries:
    def test_one_row_per_snapshot(self, uninterrupted):
        _, log = uninterrupted
        rows = log.metric_series
        assert [row["snapshot"] for row in rows] == list(range(_SNAPSHOTS))
        for row in rows:
            assert row["observations"] > 0
            assert row["probes"] > 0

    def test_rows_carry_no_wall_clock_fields(self, uninterrupted):
        _, log = uninterrupted
        for row in log.metric_series:
            assert "seconds" not in row
            # simulated time advances by the configured interval
        times = [row["time"] for row in log.metric_series]
        assert times == sorted(times)

    def test_manifest_persists_the_series(self, uninterrupted):
        directory, log = uninterrupted
        manifest = json.loads((directory / "checkpoint.json").read_text())
        assert manifest["metric_series"] == log.metric_series

    def test_resumed_series_equals_uninterrupted(self, uninterrupted, tmp_path):
        full_directory, full_log = uninterrupted
        partial = tmp_path / "partial"
        _poll(_campaign(snapshots=2), CampaignLog(), partial)

        checkpoint = load_stream_checkpoint(partial, CAMPAIGN_LAYOUT)
        assert checkpoint.log.metric_series == full_log.metric_series[:2]
        campaign, stream = resume_stream(checkpoint, snapshots=_SNAPSHOTS)
        _poll(campaign, checkpoint.log, partial, stream=stream)
        assert checkpoint.log.metric_series == full_log.metric_series
        manifest = json.loads((partial / "checkpoint.json").read_text())
        full_manifest = json.loads((full_directory / "checkpoint.json").read_text())
        assert manifest["metric_series"] == full_manifest["metric_series"]

    def test_registry_series_matches_persisted_series(self, uninterrupted):
        _, log = uninterrupted
        with obs.observed() as registry:
            _poll(_campaign(), CampaignLog())
        assert registry.series(CAMPAIGN_SERIES) == log.metric_series

    def test_row_fields_are_json_scalars(self):
        log = CampaignLog()
        _poll(_campaign(snapshots=1), log)
        (row,) = log.metric_series
        assert json.loads(json.dumps(row)) == row
