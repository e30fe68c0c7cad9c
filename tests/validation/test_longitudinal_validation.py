"""Tests for per-snapshot validation of longitudinal campaigns."""

import pytest

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.stream.daemon import DaemonConfig, StreamDaemon
from repro.stream.engine import StreamingEngine
from repro.validation.longitudinal import validate_snapshots
from repro.validation.spec import named_validator


def _campaign(snapshots=2, churn=0.05):
    """A campaign polled to its horizon, and the updates its polls emitted."""
    session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
    campaign = session.longitudinal(
        snapshots=snapshots, churn_fraction=churn, include_ipv6=False
    )
    daemon = StreamDaemon(campaign, StreamingEngine(), DaemonConfig(max_polls=snapshots))
    return campaign, daemon.run()


class TestValidateSnapshots:
    def test_one_row_per_snapshot(self):
        campaign, updates = _campaign()
        rows = validate_snapshots(campaign, updates, "midar")
        assert [row.snapshot for row in rows] == [0, 1]
        for row in rows:
            assert row.report.candidates == len(row.report.verdicts)
            assert row.probed_at == pytest.approx(row.time + campaign.config.interval)

    def test_accepts_explicit_spec_and_is_deterministic(self):
        spec = named_validator("midar")
        campaign_a, updates_a = _campaign()
        campaign_b, updates_b = _campaign()
        rows_a = validate_snapshots(campaign_a, updates_a, spec)
        rows_b = validate_snapshots(campaign_b, updates_b, spec)
        assert [r.report.verdicts for r in rows_a] == [r.report.verdicts for r in rows_b]

    def test_shared_bank_spans_snapshots(self):
        campaign, updates = _campaign()
        rows = validate_snapshots(campaign, updates, "ally")
        # Ally alone has nothing to reuse in the first snapshot's bank, but
        # the run still reports its probe accounting.
        assert all(row.report.probes_issued > 0 for row in rows)

    def test_shared_run_spans_validators(self):
        from repro.validation.runner import ValidationRun

        campaign, updates = _campaign()
        shared = ValidationRun(campaign.network)
        validate_snapshots(campaign, updates, "midar", run=shared)
        ally_rows = validate_snapshots(campaign, updates, "ally", run=shared)
        # The ally pass answers pairs from the banks the midar pass filled.
        assert sum(row.report.probes_reused for row in ally_rows) > 0


class TestSnapshotEvidenceWindow:
    def test_pair_reads_stay_within_the_staleness_bound(self, monkeypatch):
        """A snapshot never reads pair samples banked by another snapshot.

        MIDAR then Ally over one shared run, three snapshots a week apart:
        every banked pair series a snapshot's validation reads must lie
        within one staleness bound of that snapshot's validation window.
        """
        from repro.validation import longitudinal
        from repro.validation.bank import IpidSampleBank
        from repro.validation.budget import DEFAULT_VELOCITY_TTL
        from repro.validation.runner import ValidationRun

        reads: list[tuple[int, dict]] = []
        windows: list[tuple[float, float]] = []
        original_read = IpidSampleBank.cached_interleaved
        original_run = longitudinal.run_validator

        def recording_read(self, *args, **kwargs):
            collection = original_read(self, *args, **kwargs)
            if collection is not None:
                reads.append((len(windows), collection))
            return collection

        def windowed_run(run, spec, candidates=None, start_time=None):
            report = original_run(run, spec, candidates=candidates, start_time=start_time)
            windows.append((report.started_at, report.finished_at))
            return report

        monkeypatch.setattr(IpidSampleBank, "cached_interleaved", recording_read)
        monkeypatch.setattr(longitudinal, "run_validator", windowed_run)
        campaign, updates = _campaign(snapshots=3)
        shared = ValidationRun(campaign.network)
        validate_snapshots(campaign, updates, "midar", run=shared)
        validate_snapshots(campaign, updates, "ally", run=shared)

        assert len(windows) == 6
        assert reads, "no validator read banked pair evidence"
        for position, collection in reads:
            started, finished = windows[position]
            for series in collection.values():
                for timestamp, _ in series.samples:
                    assert started - DEFAULT_VELOCITY_TTL <= timestamp
                    assert timestamp <= finished + DEFAULT_VELOCITY_TTL
