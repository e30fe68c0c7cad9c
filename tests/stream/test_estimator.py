"""Tests for the online churn-rate estimator, including the simnet gate."""

import pytest

from repro.errors import SimulationError
from repro.longitudinal.campaign import LongitudinalCampaign, LongitudinalConfig
from repro.simnet.topology import generate_topology, small_topology_config
from repro.stream.engine import StreamConfig, StreamingEngine
from repro.stream.estimator import ChurnRateEstimator


class TestValidation:
    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            ChurnRateEstimator(interval=0.0)

    def test_zero_window_rejected(self):
        with pytest.raises(SimulationError):
            ChurnRateEstimator(interval=1.0, window=0)

    def test_negative_interval_rejected(self):
        with pytest.raises(SimulationError, match="positive and finite"):
            ChurnRateEstimator(interval=-5.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_interval_rejected(self, interval):
        with pytest.raises(SimulationError, match="positive and finite"):
            ChurnRateEstimator(interval=interval)


class TestRestoreValidation:
    """``restore`` reads checkpoint state, so it rejects what no live
    estimator can reach instead of carrying it into every later emit."""

    @staticmethod
    def state(**overrides):
        estimator = ChurnRateEstimator(interval=100.0)
        estimator.update(reassigned=5, tracked=100, elapsed=100.0)
        return {**estimator.state(), **overrides}

    @pytest.mark.parametrize("interval", [0.0, float("nan"), float("inf")])
    def test_interval_must_be_positive_and_finite(self, interval):
        with pytest.raises(SimulationError, match="positive and finite"):
            ChurnRateEstimator.restore(self.state(interval=interval))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_rate_must_be_finite(self, rate):
        with pytest.raises(SimulationError, match="rate must be finite"):
            ChurnRateEstimator.restore(self.state(rate=rate))

    def test_window_count_cannot_be_negative(self):
        with pytest.raises(SimulationError, match="cannot be negative"):
            ChurnRateEstimator.restore(self.state(windows=-1))

    def test_null_rate_and_zero_windows_restore(self):
        restored = ChurnRateEstimator.restore(self.state(rate=None, windows=0))
        assert restored.rate is None
        assert restored.windows == 0


class TestUpdate:
    def test_starts_without_an_estimate(self):
        estimator = ChurnRateEstimator(interval=100.0)
        assert estimator.rate is None
        assert estimator.windows == 0

    def test_first_window_sets_raw_rate(self):
        estimator = ChurnRateEstimator(interval=100.0)
        rate = estimator.update(reassigned=5, tracked=100, elapsed=100.0)
        assert rate == pytest.approx(0.05)

    def test_elapsed_scaling_normalises_to_interval(self):
        estimator = ChurnRateEstimator(interval=100.0)
        # 5% observed over half an interval extrapolates to 10% per interval.
        rate = estimator.update(reassigned=5, tracked=100, elapsed=50.0)
        assert rate == pytest.approx(0.10)

    def test_ewma_smoothing(self):
        estimator = ChurnRateEstimator(interval=100.0, window=3)
        estimator.update(reassigned=10, tracked=100, elapsed=100.0)  # 0.10
        rate = estimator.update(reassigned=0, tracked=100, elapsed=100.0)
        alpha = 2.0 / 4.0
        assert rate == pytest.approx((1 - alpha) * 0.10)
        assert estimator.windows == 2

    def test_no_signal_windows_leave_rate_unchanged(self):
        estimator = ChurnRateEstimator(interval=100.0)
        estimator.update(reassigned=5, tracked=100, elapsed=100.0)
        before = estimator.rate
        assert estimator.update(reassigned=3, tracked=0, elapsed=100.0) == before
        assert estimator.update(reassigned=3, tracked=10, elapsed=0.0) == before
        assert estimator.windows == 1

    def test_state_round_trip(self):
        estimator = ChurnRateEstimator(interval=100.0, window=5)
        estimator.update(reassigned=4, tracked=80, elapsed=100.0)
        estimator.update(reassigned=2, tracked=80, elapsed=100.0)
        restored = ChurnRateEstimator.restore(estimator.state())
        assert restored.rate == estimator.rate
        assert restored.windows == estimator.windows
        assert restored.interval == estimator.interval
        assert restored.window == estimator.window
        # The restored estimator continues the same EWMA series.
        assert restored.update(3, 80, 100.0) == estimator.update(3, 80, 100.0)

    def test_fresh_state_round_trip(self):
        restored = ChurnRateEstimator.restore(ChurnRateEstimator(interval=7.0).state())
        assert restored.rate is None
        assert restored.windows == 0


class TestEstimatorGate:
    """Validate the online estimate against simnet ground truth.

    On a quiet network (no loss, no rate limiting, no built-in churn)
    every removal window is driven purely by the injected churn, so the
    smoothed estimate must land near ``churn_fraction``.  Shared-SSH-key
    device groups make a small fraction of reassignments invisible (the
    identity survives the move), hence the one-sided-friendly tolerance.
    """

    def run_stream(self, churn, snapshots=8, seed=31):
        config = small_topology_config(
            seed=seed,
            loss_rate=0.0,
            cloud_rate_limited_fraction=0.0,
            isp_rate_limited_fraction=0.0,
            churn_fraction=0.0,
        )
        campaign = LongitudinalCampaign(
            generate_topology(config),
            config=LongitudinalConfig(
                snapshots=snapshots, churn_fraction=churn, seed=seed
            ),
        )
        stream = StreamingEngine(StreamConfig())
        for poll in range(snapshots):
            stream.sync(campaign.capture(poll).observations)
            stream.flush()
        return stream

    def test_estimate_tracks_ground_truth(self):
        churn = 0.05
        stream = self.run_stream(churn)
        estimate = stream.estimator.rate
        assert estimate is not None
        assert estimate == pytest.approx(churn, rel=0.25)

    def test_quiet_network_estimates_zero(self):
        stream = self.run_stream(churn=0.0, snapshots=3)
        assert stream.estimator.rate == pytest.approx(0.0)

    def test_estimate_rides_report_emitted_events(self):
        stream = self.run_stream(churn=0.05, snapshots=3)
        update = stream.flush()  # empty window: estimate carries over
        emitted = [event for event in update.events if event.kind == "report.emitted"]
        assert emitted == [update.events[-1]]
        assert emitted[0].churn_rate == stream.estimator.rate
