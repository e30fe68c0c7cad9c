"""Tests for the blocklist and the token bucket."""

import pytest

from repro.scanner.blocklist import Blocklist
from repro.scanner.ratelimit import TokenBucket


class TestBlocklist:
    def test_single_address(self):
        blocklist = Blocklist(["192.0.2.1"])
        assert "192.0.2.1" in blocklist
        assert "192.0.2.2" not in blocklist

    def test_prefix(self):
        blocklist = Blocklist(["10.0.0.0/24"])
        assert "10.0.0.7" in blocklist
        assert "10.0.1.7" not in blocklist

    def test_ipv6_prefix(self):
        blocklist = Blocklist(["2001:db8::/32"])
        assert "2001:db8::1" in blocklist
        assert "2001:db9::1" not in blocklist

    def test_filter(self):
        blocklist = Blocklist(["10.0.0.0/24", "192.0.2.5"])
        targets = ["10.0.0.1", "10.1.0.1", "192.0.2.5", "192.0.2.6"]
        assert blocklist.filter(targets) == ["10.1.0.1", "192.0.2.6"]

    def test_len_and_add(self):
        blocklist = Blocklist()
        assert len(blocklist) == 0
        blocklist.add("10.0.0.0/8")
        blocklist.add("192.0.2.1")
        assert len(blocklist) == 2

    def test_families_do_not_interfere(self):
        blocklist = Blocklist(["0.0.0.0/0"])
        assert "2001:db8::1" not in blocklist

    def test_empty_blocklist_rejects_a_malformed_target(self):
        with pytest.raises(ValueError):
            Blocklist().filter(["192.0.2.1", "not-an-ip"])

    def test_non_canonical_spelling_matches_its_entry(self):
        blocklist = Blocklist(["2001:db8::1"])
        assert "2001:DB8:0::1" in blocklist
        assert blocklist.filter(["2001:DB8:0::1", "2001:db8::2"]) == ["2001:db8::2"]


class TestTokenBucket:
    def test_first_probe_at_start_time(self):
        bucket = TokenBucket(rate=100.0, start_time=10.0)
        assert bucket.next_timestamp() == 10.0

    def test_rate_spacing(self):
        bucket = TokenBucket(rate=10.0)
        timestamps = [bucket.next_timestamp() for _ in range(11)]
        assert timestamps[0] == 0.0
        assert timestamps[10] == pytest.approx(1.0)

    def test_burst_allows_simultaneous_probes(self):
        bucket = TokenBucket(rate=1.0, burst=5)
        timestamps = [bucket.next_timestamp() for _ in range(5)]
        assert timestamps == [0.0] * 5
        assert bucket.next_timestamp() == pytest.approx(1.0)

    def test_duration(self):
        bucket = TokenBucket(rate=100.0)
        assert bucket.duration(1) == 0.0
        assert bucket.duration(101) == pytest.approx(1.0)

    def test_sent_counter(self):
        bucket = TokenBucket(rate=10.0)
        for _ in range(7):
            bucket.next_timestamp()
        assert bucket.sent == 7

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)
