"""Campaign checkpoints: stop after snapshot k, resume to k+n, exact parity."""

import dataclasses
import json

import pytest
from chain_cases import ContentsCases, ResumeCases, RotationCases, copy_checkpoint

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.core.engine import report_signature
from repro.core.identifiers import IdentifierOptions
from repro.errors import PersistError
from repro.longitudinal.campaign import LongitudinalCampaign
from repro.net.addresses import AddressFamily
from repro.persist.campaign import (
    CHECKPOINT_MANIFEST,
    CampaignCheckpointer,
    load_checkpoint,
    resume_campaign,
)

_CONFIG = ScenarioConfig(scale=0.05, seed=7)
_SNAPSHOTS = 4
_CHURN = 0.05


def _campaign(snapshots=_SNAPSHOTS):
    return ReproSession(_CONFIG).longitudinal(
        snapshots=snapshots, churn_fraction=_CHURN
    )


class CampaignChain:
    """The campaign checkpoint chain, driven for the shared chain cases."""

    manifest = CHECKPOINT_MANIFEST
    step = "snapshot"
    load = staticmethod(load_checkpoint)

    def run(self, directory, steps, keep=1, validation_run=None):
        _campaign(snapshots=steps).run(
            checkpointer=CampaignCheckpointer(
                directory, _CONFIG, keep=keep, validation_run=validation_run
            )
        )

    def resume(self, checkpoint, steps, directory=None, validation_run=None):
        campaign, engine = resume_campaign(checkpoint, snapshots=steps)
        checkpointer = None
        if directory is not None:
            checkpointer = CampaignCheckpointer(
                directory,
                checkpoint.scenario,
                prior_stability=checkpoint.stability,
                validation_run=validation_run,
            )
        result = campaign.run(
            checkpointer=checkpointer,
            start=checkpoint.completed,
            previous=checkpoint.last_observations,
            engine=engine,
        )
        return [report_signature(resolved.report) for resolved in result.snapshots]

    @staticmethod
    def signatures(uninterrupted):
        return [report_signature(resolved.report) for resolved in uninterrupted.snapshots]


@pytest.fixture(scope="module")
def chain():
    return CampaignChain()


@pytest.fixture(scope="module")
def uninterrupted():
    """The reference: one campaign run start to finish."""
    return _campaign().run()


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """A campaign stopped after two snapshots, checkpointing as it goes."""
    directory = tmp_path_factory.mktemp("campaign") / "checkpoint"
    campaign = _campaign(snapshots=2)
    campaign.run(checkpointer=CampaignCheckpointer(directory, _CONFIG))
    return directory


class TestCheckpointContents(ContentsCases):
    def test_manifest_round_trip(self, checkpoint_dir):
        checkpoint = load_checkpoint(checkpoint_dir)
        assert checkpoint.completed == 2
        assert checkpoint.last_name == "snapshot-1"
        assert checkpoint.scenario == _CONFIG
        assert checkpoint.campaign.churn_fraction == _CHURN
        assert checkpoint.include_ipv6 is True
        assert len(checkpoint.stability["ipv4"]) == 2
        assert len(checkpoint.last_observations) > 0

    def test_stability_rows_restore_as_objects(self, checkpoint_dir, uninterrupted):
        checkpoint = load_checkpoint(checkpoint_dir)
        restored = checkpoint.stability_rows(AddressFamily.IPV4)
        reference = [s.stability() for s in uninterrupted.snapshots[:2]]
        assert restored == reference

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
        campaign.run(checkpointer=CampaignCheckpointer(tmp_path / "options", _CONFIG))
        checkpoint = load_checkpoint(tmp_path / "options")
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
            load_checkpoint(copy)


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
            load_checkpoint(copy)


class TestResumeParity(ResumeCases):
    def test_resumed_matches_uninterrupted_snapshot_for_snapshot(
        self, checkpoint_dir, uninterrupted
    ):
        checkpoint = load_checkpoint(checkpoint_dir)
        campaign, engine = resume_campaign(checkpoint, snapshots=_SNAPSHOTS)
        resumed = campaign.run(
            start=checkpoint.completed,
            previous=checkpoint.last_observations,
            engine=engine,
        )
        assert len(resumed.snapshots) == _SNAPSHOTS - checkpoint.completed
        for resolved, reference in zip(
            resumed.snapshots,
            uninterrupted.snapshots[checkpoint.completed :],
            strict=True,
        ):
            assert report_signature(resolved.report) == report_signature(
                reference.report
            )
            assert resolved.stability() == reference.stability()
            assert resolved.stability(AddressFamily.IPV6) == reference.stability(
                AddressFamily.IPV6
            )

    def test_resume_continues_checkpointing(self, checkpoint_dir, tmp_path):
        checkpoint = load_checkpoint(checkpoint_dir)
        campaign, engine = resume_campaign(checkpoint, snapshots=3)
        target = tmp_path / "continued"
        checkpointer = CampaignCheckpointer(
            target, checkpoint.scenario, prior_stability=checkpoint.stability
        )
        campaign.run(
            checkpointer=checkpointer,
            start=checkpoint.completed,
            previous=checkpoint.last_observations,
            engine=engine,
        )
        final = load_checkpoint(target)
        assert final.completed == 3
        assert len(final.stability["ipv4"]) == 3

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

        uninterrupted = campaign(2).run()
        directory = tmp_path / "subwindow"
        campaign(1).run(checkpointer=CampaignCheckpointer(directory, config))
        checkpoint = load_checkpoint(directory)
        assert checkpoint.probe_counts  # same-window counters were persisted
        resumed_campaign, engine = resume_campaign(checkpoint, snapshots=2)
        resumed = resumed_campaign.run(
            start=checkpoint.completed,
            previous=checkpoint.last_observations,
            engine=engine,
        )
        assert list(resumed.snapshots[0].capture.observations) == list(
            uninterrupted.snapshots[1].capture.observations
        )
        assert report_signature(resumed.snapshots[0].report) == report_signature(
            uninterrupted.snapshots[1].report
        )

    def test_resume_below_completed_raises(self, checkpoint_dir):
        checkpoint = load_checkpoint(checkpoint_dir)
        with pytest.raises(PersistError, match="already completed"):
            resume_campaign(checkpoint, snapshots=1)

    def test_resume_with_nothing_to_do(self, checkpoint_dir):
        checkpoint = load_checkpoint(checkpoint_dir)
        campaign, engine = resume_campaign(checkpoint)
        result = campaign.run(
            start=checkpoint.completed,
            previous=checkpoint.last_observations,
            engine=engine,
        )
        assert result.snapshots == ()
        assert engine.report is not None

    def test_restored_engine_refuses_bootstrap(self, checkpoint_dir):
        from repro.errors import DatasetError

        checkpoint = load_checkpoint(checkpoint_dir)
        _, engine = resume_campaign(checkpoint)
        with pytest.raises(DatasetError, match="bootstrapped"):
            engine.bootstrap([])


class TestRunInterleaving:
    def test_run_equals_collect_then_resolve(self, uninterrupted):
        campaign = _campaign()
        phased = campaign.resolve(campaign.collect())
        for resolved, reference in zip(phased.snapshots, uninterrupted.snapshots, strict=True):
            assert report_signature(resolved.report) == report_signature(
                reference.report
            )

    def test_run_resume_guard(self):
        from repro.errors import SimulationError

        campaign = _campaign()
        with pytest.raises(SimulationError, match="restored engine"):
            campaign.run(start=1)

    def test_collect_resume_guard(self):
        from repro.errors import SimulationError

        campaign = _campaign()
        with pytest.raises(SimulationError, match="previous snapshot"):
            campaign.collect(start=1)

    def test_snapshots_override_recorded_in_manifest(self, checkpoint_dir, tmp_path):
        checkpoint = load_checkpoint(checkpoint_dir)
        campaign, engine = resume_campaign(checkpoint, snapshots=3)
        assert campaign.config == dataclasses.replace(checkpoint.campaign, snapshots=3)


class TestCheckpointRotation(RotationCases):
    def test_default_keeps_only_newest(self, checkpoint_dir):
        assert sorted(p.name for p in checkpoint_dir.glob("index-*")) == []
        assert sorted(p.name for p in checkpoint_dir.glob("snapshot-*.jsonl")) == [
            "snapshot-0002.jsonl"
        ]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(PersistError, match="at least one snapshot"):
            CampaignCheckpointer(tmp_path, _CONFIG, keep=0)
