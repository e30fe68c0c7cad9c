"""Tests for the longitudinal campaign driver."""

import pytest

from repro.api import ReproSession, ScenarioConfig
from repro.core.engine import ResolutionEngine, report_signature
from repro.core.identifiers import count_extractions
from repro.errors import SimulationError
from repro.longitudinal import LongitudinalCampaign, LongitudinalConfig, LongitudinalEngine
from repro.net.addresses import AddressFamily
from repro.simnet.topology import generate_topology, small_topology_config


def quiet_network(seed=31):
    """A small network without loss, rate limiting, or built-in churn."""
    config = small_topology_config(
        seed=seed,
        loss_rate=0.0,
        cloud_rate_limited_fraction=0.0,
        isp_rate_limited_fraction=0.0,
        churn_fraction=0.0,
    )
    return generate_topology(config)


class TestConfigValidation:
    def test_zero_snapshots_rejected(self):
        with pytest.raises(SimulationError):
            LongitudinalConfig(snapshots=0)

    def test_full_churn_rejected(self):
        with pytest.raises(SimulationError):
            LongitudinalConfig(churn_fraction=1.0)

    def test_negative_interval_rejected(self):
        with pytest.raises(SimulationError):
            LongitudinalConfig(interval=-1.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_interval_rejected(self, interval):
        with pytest.raises(SimulationError, match="positive and finite"):
            LongitudinalConfig(interval=interval)


class TestQuietCampaign:
    """Without churn or loss, every snapshot is identical."""

    @pytest.fixture(scope="class")
    def result(self):
        campaign = LongitudinalCampaign(
            quiet_network(),
            config=LongitudinalConfig(snapshots=3, churn_fraction=0.0, seed=5),
        )
        return campaign.run()

    def test_snapshot_count(self, result):
        assert len(result.snapshots) == 3

    def test_deltas_empty(self, result):
        for snapshot in result.snapshots[1:]:
            assert snapshot.capture.delta.is_empty

    def test_full_persistence(self, result):
        for stability in result.stability(AddressFamily.IPV4)[1:]:
            assert stability.persistence == 1.0
            assert stability.born == 0
            assert stability.dissolved == 0
            assert stability.splits == 0

    def test_reports_identical_across_snapshots(self, result):
        first = result.snapshots[0].report
        last = result.final_report
        assert len(first.ipv4_union.non_singleton()) == len(
            last.ipv4_union.non_singleton()
        )


class TestChurningCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return LongitudinalCampaign(
            quiet_network(seed=77),
            config=LongitudinalConfig(snapshots=3, churn_fraction=0.1, seed=9),
        )

    @pytest.fixture(scope="class")
    def captures(self, campaign):
        return campaign.collect()

    @pytest.fixture(scope="class")
    def result(self, campaign, captures):
        return campaign.resolve(captures)

    def test_churn_produces_deltas(self, captures):
        for capture in captures[1:]:
            assert capture.churned
            assert capture.delta.added and capture.delta.removed
            # Churn touches a few percent of the snapshot, not most of it.
            assert capture.delta.unchanged > len(capture.delta.added)

    def test_incremental_matches_from_scratch_every_snapshot(self, captures, result):
        reference_engine = ResolutionEngine()
        for capture, snapshot in zip(captures, result.snapshots, strict=True):
            reference = reference_engine.resolve(capture.observations, name=capture.name)
            assert report_signature(snapshot.report) == report_signature(reference)

    def test_delta_replay_extracts_only_added_observations(self, captures):
        # Removed observations reuse the identifier cached when they were
        # added, so a delta replay extracts only the added ones; a rebuild
        # re-extracts every observation of every snapshot.
        engine = LongitudinalEngine()
        engine.bootstrap(captures[0].observations, name=captures[0].name)
        with count_extractions() as replay:
            for capture in captures[1:]:
                engine.apply(capture.delta, name=capture.name)
        with count_extractions() as rebuild:
            for capture in captures[1:]:
                ResolutionEngine().resolve(capture.observations, name=capture.name)
        added = sum(len(capture.delta.added) for capture in captures[1:])
        observed = sum(len(capture.observations) for capture in captures[1:])
        assert (replay.count, rebuild.count) == (added, observed) == (114, 1_327)

    def test_stability_reflects_disruption(self, result):
        rows = result.stability(AddressFamily.IPV4)[1:]
        assert any(row.persistence < 1.0 for row in rows)
        assert all(0.0 <= row.persistence <= 1.0 for row in rows)

    def test_disruptions_attributed_to_churn(self, result):
        rows = result.stability(AddressFamily.IPV4)[1:]
        # With churn as the only noise source, every disruption traces back
        # to a churned address.
        for row in rows:
            assert row.churn_attributed_disruptions == row.disrupted
            assert row.churn_attributed_splits == row.splits

    def test_churned_addresses_answer_from_new_device(self, campaign, captures):
        """The paper's mechanism: a churned address changes identity, not just
        reachability — so some churned addresses stay responsive."""
        responsive = {
            observation.address for observation in captures[-1].observations
        }
        churned = set().union(*(capture.churned for capture in captures[1:]))
        assert churned & responsive

    def test_collect_is_deterministic(self):
        def run():
            return LongitudinalCampaign(
                quiet_network(seed=77),
                config=LongitudinalConfig(snapshots=2, churn_fraction=0.1, seed=9),
            ).collect()
        first = run()
        second = run()
        assert [c.observations for c in first] == [c.observations for c in second]
        assert [c.churned for c in first] == [c.churned for c in second]


class TestScenarioWiring:
    def test_longitudinal_campaign_uses_fresh_network(self):
        session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
        campaign = session.longitudinal(snapshots=2)
        assert campaign.network is not session.network
        assert len(campaign.network.all_addresses()) == len(
            session.network.all_addresses()
        )

    def test_ipv4_only_campaign_has_no_ipv6(self):
        session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
        campaign = session.longitudinal(snapshots=2, include_ipv6=False)
        captures = campaign.collect()
        families = {
            observation.family
            for capture in captures
            for observation in capture.observations
        }
        assert families == {AddressFamily.IPV4}
