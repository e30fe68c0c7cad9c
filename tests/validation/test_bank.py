"""Tests for the shared IPID sample bank."""

from repro.baselines.ipid import collect_interleaved
from repro.validation.bank import IpidSampleBank
from repro.validation.budget import DEFAULT_VELOCITY_TTL


def _estimate(bank, address, start_time, samples=4, interval=1.0):
    """One estimation read under MIDAR's early-stop rule."""
    return bank.estimation_series(
        address,
        samples,
        interval,
        start_time,
        max_age=DEFAULT_VELOCITY_TTL,
        early_stop=(3, 2_000.0),
    )


class TestSeriesMemoisation:
    def test_identical_request_served_from_cache(self, network, vantage, count_probes):
        counter = count_probes(network)
        bank = IpidSampleBank(network, vantage)
        first, issued = _estimate(bank, "10.0.1.1", 0.0)
        assert counter["probes"] == issued == 4
        second, reissued = _estimate(bank, "10.0.1.1", 0.0)
        assert second is first
        assert reissued == 0
        assert counter["probes"] == 4  # no new network traffic
        assert bank.probes_issued == 4
        assert bank.probes_reused == 4

    def test_past_the_staleness_bound_collects_again(self, network, vantage):
        bank = IpidSampleBank(network, vantage)
        first, _ = _estimate(bank, "10.0.1.1", 0.0)
        within, _ = _estimate(bank, "10.0.1.1", DEFAULT_VELOCITY_TTL)
        assert within is first
        later, issued = _estimate(bank, "10.0.1.1", DEFAULT_VELOCITY_TTL + 0.1)
        assert later is not first
        assert issued == 4
        assert bank.probes_issued == 8
        assert bank.probes_reused == 4

    def test_cold_bank_matches_direct_collection(self, make_network, vantage):
        banked, _ = _estimate(
            IpidSampleBank(make_network(), vantage), "10.0.1.1", 10.0, samples=5, interval=2.0
        )
        network = make_network()
        times = [10.0 + 2.0 * index for index in range(5)]
        direct = [(t, network.sample_ipid("10.0.1.1", vantage, now=t)) for t in times]
        assert banked.samples == [(t, ipid) for t, ipid in direct if ipid is not None]
        assert len(banked.samples) == 5

    def test_unresponsive_probes_still_counted(self, network, vantage):
        bank = IpidSampleBank(network, vantage)
        series, issued = _estimate(bank, "198.18.0.1", 0.0, samples=3)
        assert series.response_count == 0
        assert issued == bank.probes_issued == 3


class TestInterleavedMemoisation:
    def test_cold_bank_matches_direct_collection(self, make_network, vantage):
        banked = IpidSampleBank(make_network(), vantage).interleaved(
            ("10.0.1.1", "10.0.1.2"), rounds=4, interval=1.0, start_time=5.0
        )
        direct = collect_interleaved(
            make_network(), ["10.0.1.1", "10.0.1.2"], vantage, rounds=4, interval=1.0, start_time=5.0
        )
        assert {a: s.samples for a, s in banked.items()} == {
            a: s.samples for a, s in direct.items()
        }


def _cached(bank, left, right, now=0.0, requested_probes=12):
    return bank.cached_interleaved(
        left, right, requested_probes=requested_probes, now=now, max_age=DEFAULT_VELOCITY_TTL
    )


class TestPairReuse:
    def test_cached_pair_found_regardless_of_order(self, network, vantage):
        bank = IpidSampleBank(network, vantage)
        collected = bank.interleaved(("10.0.1.1", "10.0.1.2"), rounds=6, interval=1.0, start_time=0.0)
        assert _cached(bank, "10.0.1.2", "10.0.1.1") is collected
        assert bank.probes_reused == 12

    def test_pair_reuse_counts_callers_avoided_probes(self, network, vantage):
        bank = IpidSampleBank(network, vantage)
        bank.interleaved(("10.0.1.1", "10.0.1.2"), rounds=6, interval=1.0, start_time=0.0)
        _cached(bank, "10.0.1.1", "10.0.1.2", requested_probes=6)
        assert bank.probes_reused == 6  # what the caller's schedule avoided

    def test_unknown_pair_returns_none(self, network, vantage):
        bank = IpidSampleBank(network, vantage)
        assert _cached(bank, "10.0.1.1", "10.0.2.1") is None

    def test_latest_collection_wins(self, network, vantage):
        bank = IpidSampleBank(network, vantage)
        bank.interleaved(("10.0.1.1", "10.0.1.2"), rounds=3, interval=0.5, start_time=0.0)
        later = bank.interleaved(("10.0.1.1", "10.0.1.2"), rounds=3, interval=0.5, start_time=50.0)
        assert _cached(bank, "10.0.1.1", "10.0.1.2") is later

    def test_wider_interleave_registers_every_pair(self, network, vantage):
        bank = IpidSampleBank(network, vantage)
        collected = bank.interleaved(
            ("10.0.1.1", "10.0.1.2", "10.0.1.3"), rounds=3, interval=0.5, start_time=0.0
        )
        assert _cached(bank, "10.0.1.3", "10.0.1.1") is collected

    def test_stale_collection_not_served(self, network, vantage):
        bank = IpidSampleBank(network, vantage)
        collected = bank.interleaved(("10.0.1.1", "10.0.1.2"), rounds=3, interval=0.5, start_time=0.0)
        assert _cached(bank, "10.0.1.1", "10.0.1.2", now=DEFAULT_VELOCITY_TTL) is collected
        assert _cached(bank, "10.0.1.1", "10.0.1.2", now=-DEFAULT_VELOCITY_TTL) is collected
        assert _cached(bank, "10.0.1.1", "10.0.1.2", now=DEFAULT_VELOCITY_TTL + 0.1) is None
        assert bank.probes_reused == 2 * 12  # a refused read reuses nothing
