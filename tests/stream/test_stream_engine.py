"""Tests for the StreamingEngine: full-scan ingest, emits, and batch equivalence."""

import pytest

from repro import obs
from repro.core.engine import ResolutionEngine, report_signature
from repro.errors import DatasetError
from repro.longitudinal.campaign import LongitudinalCampaign, LongitudinalConfig
from repro.longitudinal.delta import diff_alias_sets
from repro.simnet.device import ServiceType
from repro.simnet.topology import generate_topology, small_topology_config
from repro.sources.records import Observation
from repro.stream.engine import StreamingEngine
from repro.stream.events import ReportEmitted


def ssh(address, device="device-a", timestamp=0.0):
    return Observation(
        address=address,
        protocol=ServiceType.SSH,
        source="test",
        port=22,
        timestamp=timestamp,
        fields=(
            ("banner", "SSH-2.0-OpenSSH_9.4"),
            ("capability_signature", f"caps-{device}"),
            ("host_key_fingerprint", f"key-{device}"),
        ),
    )


def quiet_network(seed=31):
    config = small_topology_config(
        seed=seed,
        loss_rate=0.0,
        cloud_rate_limited_fraction=0.0,
        isp_rate_limited_fraction=0.0,
        churn_fraction=0.0,
    )
    return generate_topology(config)


class TestIngest:
    def test_identical_reobservation_only_advances_clock(self):
        stream = StreamingEngine()
        stream.sync([ssh("10.0.0.1", "alpha", timestamp=0.0)])
        stream.flush()
        assert stream.sync([ssh("10.0.0.1", "alpha", timestamp=100.0)]) is None
        assert stream.clock == 100.0
        report = stream.flush().events[-1]
        assert report.added == 0 and report.removed == 0

    def test_identity_change_stages_remove_plus_add(self):
        stream = StreamingEngine()
        stream.sync([ssh("10.0.0.1", "alpha")])
        stream.flush()
        stream.sync([ssh("10.0.0.1", "beta")])
        report = stream.flush().events[-1]
        assert report.added == 1 and report.removed == 1
        assert len(stream.live_observations()) == 1

    def test_sync_reconciles_full_scan(self):
        stream = StreamingEngine()
        stream.sync([ssh("10.0.0.1", "alpha"), ssh("10.0.0.2", "alpha")])
        stream.flush()
        # Second scan: .2 vanished, .3 appeared, .1 unchanged.
        stream.sync([ssh("10.0.0.1", "alpha"), ssh("10.0.0.3", "beta")])
        update = stream.flush()
        report = update.events[-1]
        assert isinstance(report, ReportEmitted)
        assert report.added == 1
        assert report.removed == 1
        assert len(stream.live_observations()) == 2

    def test_empty_scan_removes_every_service(self):
        stream = StreamingEngine()
        stream.sync([ssh("10.0.0.1", "alpha"), ssh("10.0.0.2", "alpha")])
        stream.flush()
        stream.sync([])
        report = stream.flush().events[-1]
        assert report.removed == 2 and report.observations == 0
        assert stream.live_observations() == ()

    def test_live_observations_round_trip(self):
        stream = StreamingEngine()
        observations = [ssh("10.0.0.1", "alpha"), ssh("10.0.0.2", "beta")]
        stream.sync(observations)
        assert sorted(o.address for o in stream.live_observations()) == [
            "10.0.0.1",
            "10.0.0.2",
        ]


class TestFlush:
    def test_flush_empty_stream_raises(self):
        with pytest.raises(DatasetError):
            StreamingEngine().flush()

    def test_flush_names_follow_emit_sequence(self):
        stream = StreamingEngine()
        stream.sync([ssh("10.0.0.1")])
        assert stream.flush().name == "snapshot-0"
        stream.sync([ssh("10.0.0.1"), ssh("10.0.0.2")])
        assert stream.flush().name == "snapshot-1"
        assert stream.emitted == 2

    def test_flush_without_new_changes_emits_empty_window(self):
        stream = StreamingEngine()
        stream.sync([ssh("10.0.0.1")])
        stream.flush()
        update = stream.flush()
        report = update.events[-1]
        assert report.added == 0 and report.removed == 0
        assert update.emit == 1

    def test_report_emitted_is_always_last_event(self):
        stream = StreamingEngine()
        stream.sync([ssh("10.0.0.1", "alpha"), ssh("10.0.0.2", "alpha")])
        update = stream.flush()
        assert isinstance(update.events[-1], ReportEmitted)


class TestEventCounts:
    """Each flush counts its events by kind and mirrors them to obs."""

    def two_emits(self, stream):
        stream.sync([ssh("10.0.0.1", "alpha"), ssh("10.0.0.2", "alpha")])
        first = stream.flush()
        stream.sync([ssh("10.0.0.1", "alpha"), ssh("10.0.0.3", "beta"), ssh("10.0.0.4", "beta")])
        return [first, stream.flush()]

    def test_counts_accumulate_by_kind(self):
        stream = StreamingEngine()
        updates = self.two_emits(stream)
        expected: dict[str, int] = {}
        for update in updates:
            for event in update.events:
                expected[event.kind] = expected.get(event.kind, 0) + 1
        assert stream.event_counts == expected
        assert list(stream.event_counts) == list(expected)
        assert expected["report.emitted"] == 2
        assert expected["alias_set.born"] == 2

    def test_obs_mirroring_when_enabled(self):
        stream = StreamingEngine()
        with obs.observed() as registry:
            updates = self.two_emits(stream)
        for kind, count in stream.event_counts.items():
            assert registry.counter_value("stream.events", kind=kind) == count
        assert registry.series("stream.events") == [
            event.to_fields() for update in updates for event in update.events
        ]

    def test_no_obs_traffic_when_disabled(self):
        stream = StreamingEngine()
        self.two_emits(stream)
        assert obs.metrics().counter_value("stream.events", kind="report.emitted") == 0


class TestBatchEquivalence:
    """The equivalence gate: every emit == a from-scratch batch resolution."""

    def campaign(self, seed=31, snapshots=4, churn=0.05):
        return LongitudinalCampaign(
            quiet_network(seed=seed),
            config=LongitudinalConfig(
                snapshots=snapshots, churn_fraction=churn, seed=seed
            ),
        )

    def test_stream_matches_batch_signatures_and_event_counts(self):
        snapshots = 4
        campaign = self.campaign()
        stream = StreamingEngine()
        batch = ResolutionEngine()
        previous = {"ipv4": [], "ipv6": []}
        for poll in range(snapshots):
            capture = campaign.capture(poll)
            assert stream.sync(capture.observations) is None
            update = stream.flush()
            reference = batch.resolve(capture.observations, name=capture.name)
            assert report_signature(update.report) == report_signature(reference)
            for family in ("ipv4", "ipv6"):
                current = getattr(reference, f"{family}_union").non_singleton().sets
                batch_delta = diff_alias_sets(previous[family], current)
                stream_delta = getattr(update.resolution, f"{family}_delta")
                assert stream_delta.counts() == batch_delta.counts()
                previous[family] = current

    def test_event_counts_match_delta_totals(self):
        snapshots = 3
        campaign = self.campaign(snapshots=snapshots)
        stream = StreamingEngine()
        expected = {kind: 0 for kind in ("born", "dissolved", "grown", "shrunk", "migrated")}
        for poll in range(snapshots):
            stream.sync(campaign.capture(poll).observations)
            update = stream.flush()
            for delta in (update.resolution.ipv4_delta, update.resolution.ipv6_delta):
                for kind in expected:
                    expected[kind] += len(getattr(delta, kind))
        for kind, total in expected.items():
            assert stream.event_counts.get(f"alias_set.{kind}", 0) == total
        assert stream.event_counts["report.emitted"] == snapshots
