"""Tests for the longitudinal campaign: its event source and its stability log."""

from itertools import pairwise

import pytest

from repro.api import ReproSession, ScenarioConfig
from repro.core.engine import ResolutionEngine, report_signature
from repro.core.identifiers import count_extractions
from repro.errors import SimulationError
from repro.longitudinal import (
    CampaignLog,
    LongitudinalCampaign,
    LongitudinalConfig,
    diff_observations,
)
from repro.net.addresses import AddressFamily
from repro.simnet.topology import generate_topology, small_topology_config
from repro.stream import DaemonConfig, StreamDaemon, StreamingEngine


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


def poll(campaign):
    """Poll ``campaign`` to its horizon: its updates and its stability log."""
    log = CampaignLog()
    daemon = StreamDaemon(
        campaign, StreamingEngine(), DaemonConfig(max_polls=campaign.config.snapshots), log=log
    )
    return daemon.run(), log


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snapshots", 2.5),
            ("snapshots", True),
            ("snapshots", "3"),
            ("seed", True),
            ("seed", 3.0),
            ("seed", "3"),
            ("seed", None),
            ("interval", True),
            ("interval", "604800"),
            ("churn_fraction", False),
            ("churn_fraction", "0.02"),
            pytest.param("interval", 10**400, id="interval-beyond-float"),
            pytest.param("churn_fraction", 10**400, id="churn_fraction-beyond-float"),
        ],
    )
    def test_wrongly_typed_field_rejected_by_name(self, field, value):
        with pytest.raises(SimulationError, match=field):
            LongitudinalConfig(**{field: value})

    def test_integral_numbers_accepted(self):
        config = LongitudinalConfig(interval=600, churn_fraction=0)
        assert (config.interval, config.churn_fraction) == (600, 0)

    def test_time_of_spaces_snapshots_by_interval(self):
        config = LongitudinalConfig(interval=600.0)
        assert [config.time_of(k) for k in range(3)] == [0.0, 600.0, 1_200.0]


class TestQuietCampaign:
    """Without churn or loss, every snapshot is identical."""

    @pytest.fixture(scope="class")
    def result(self):
        return poll(
            LongitudinalCampaign(
                quiet_network(),
                config=LongitudinalConfig(snapshots=3, churn_fraction=0.0, seed=5),
            )
        )

    def test_snapshot_count(self, result):
        updates, log = result
        assert len(updates) == len(log.stability[AddressFamily.IPV4]) == 3

    def test_deltas_empty(self, result):
        updates, log = result
        for update, stability in zip(updates[1:], log.stability[AddressFamily.IPV4][1:], strict=True):
            assert update.events[-1].added == update.events[-1].removed == 0
            assert stability.added == stability.removed == 0

    def test_full_persistence(self, result):
        _, log = result
        for stability in log.stability[AddressFamily.IPV4][1:]:
            assert stability.persistence == 1.0
            assert stability.born == 0
            assert stability.dissolved == 0
            assert stability.splits == 0

    def test_reports_identical_across_snapshots(self, result):
        updates, _ = result
        first = updates[0].report
        last = updates[-1].report
        assert len(first.ipv4_union.non_singleton()) == len(
            last.ipv4_union.non_singleton()
        )


class TestChurningCampaign:
    @staticmethod
    def make_campaign():
        return LongitudinalCampaign(
            quiet_network(seed=77),
            config=LongitudinalConfig(snapshots=3, churn_fraction=0.1, seed=9),
        )

    @pytest.fixture(scope="class")
    def campaign(self):
        return self.make_campaign()

    @pytest.fixture(scope="class")
    def captures(self, campaign):
        return campaign.collect()

    @pytest.fixture(scope="class")
    def result(self):
        # Same seed: the poll loop captures exactly the collected sequence.
        return poll(self.make_campaign())

    def test_churn_produces_deltas(self, captures):
        for previous, capture in pairwise(captures):
            delta = diff_observations(previous.observations, capture.observations)
            assert capture.churned
            assert delta.added and delta.removed
            # Churn touches a few percent of the snapshot, not most of it.
            assert delta.unchanged > len(delta.added)

    def test_incremental_matches_from_scratch_every_snapshot(self, captures, result):
        updates, _ = result
        reference_engine = ResolutionEngine()
        for capture, update in zip(captures, updates, strict=True):
            reference = reference_engine.resolve(capture.observations, name=capture.name)
            assert report_signature(update.report) == report_signature(reference)

    def test_delta_replay_extracts_each_delta_observation_once(self, captures):
        # A delta replay extracts the identifier of each added and each
        # removed observation once; a rebuild re-extracts every observation
        # of every snapshot.
        stream = StreamingEngine()
        stream.sync(captures[0].observations)
        stream.flush()
        with count_extractions() as replay:
            for capture in captures[1:]:
                stream.sync(capture.observations)
                stream.flush()
        with count_extractions() as rebuild:
            for capture in captures[1:]:
                ResolutionEngine().resolve(capture.observations, name=capture.name)
        deltas = [
            diff_observations(previous.observations, capture.observations)
            for previous, capture in pairwise(captures)
        ]
        replayed = sum(len(delta.added) + len(delta.removed) for delta in deltas)
        observed = sum(len(capture.observations) for capture in captures[1:])
        assert (replay.count, rebuild.count) == (replayed, observed) == (236, 1_327)

    def test_log_deltas_equal_the_diff_of_consecutive_scans(self, captures, result):
        # The rows read +Obs/-Obs off each poll's closing ReportEmitted; the
        # first snapshot has no predecessor and records +0/-0.
        updates, log = result
        expected = [(0, 0)] + [
            (len(delta.added), len(delta.removed))
            for delta in (
                diff_observations(previous.observations, capture.observations)
                for previous, capture in pairwise(captures)
            )
        ]
        for family in (AddressFamily.IPV4, AddressFamily.IPV6):
            rows = log.stability[family]
            assert [(row.added, row.removed) for row in rows] == expected
            assert [row.snapshot for row in rows] == [c.index for c in captures]
            assert [row.observations for row in rows] == [
                len(c.observations) for c in captures
            ]
        assert [row.sets for row in log.stability[AddressFamily.IPV4]] == [
            len(update.report.ipv4_union.non_singleton()) for update in updates
        ]
        assert [(row["added"], row["removed"]) for row in log.metric_series] == expected
        assert [row["churned"] for row in log.metric_series] == [
            len(c.churned) for c in captures
        ]

    def test_stability_reflects_disruption(self, result):
        _, log = result
        rows = log.stability[AddressFamily.IPV4][1:]
        assert any(row.persistence < 1.0 for row in rows)
        assert all(0.0 <= row.persistence <= 1.0 for row in rows)

    def test_disruptions_attributed_to_churn(self, result):
        _, log = result
        rows = log.stability[AddressFamily.IPV4][1:]
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
