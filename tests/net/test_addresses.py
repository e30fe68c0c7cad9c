"""Tests for repro.net.addresses."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import addresses


class TestParsing:
    def test_parse_ipv4(self):
        assert str(addresses.parse_address("192.0.2.1")) == "192.0.2.1"

    def test_parse_ipv6(self):
        assert str(addresses.parse_address("2001:db8::1")) == "2001:db8::1"

    def test_parse_invalid_raises(self):
        with pytest.raises(ValueError):
            addresses.parse_address("not-an-address")

    def test_canonical_compresses_ipv6(self):
        assert addresses.canonical("2001:0db8:0000:0000:0000:0000:0000:0001") == "2001:db8::1"

    def test_canonical_ipv4_identity(self):
        assert addresses.canonical("198.51.100.7") == "198.51.100.7"


class TestFamily:
    def test_family_ipv4(self):
        assert addresses.family_of("10.0.0.1") is addresses.AddressFamily.IPV4

    def test_family_ipv6(self):
        assert addresses.family_of("::1") is addresses.AddressFamily.IPV6

    def test_is_ipv4(self):
        assert addresses.is_ipv4("10.0.0.1")
        assert not addresses.is_ipv4("::1")

    def test_is_ipv6(self):
        assert addresses.is_ipv6("fe80::1")
        assert not addresses.is_ipv6("10.0.0.1")


class TestPrefixAddresses:
    def test_small_ipv4_prefix_excludes_network_and_broadcast(self):
        hosts = list(addresses.prefix_addresses("192.0.2.0/30"))
        assert hosts == ["192.0.2.1", "192.0.2.2"]

    def test_limit_respected(self):
        hosts = list(addresses.prefix_addresses("10.0.0.0/8", limit=5))
        assert len(hosts) == 5

    def test_ipv6_prefix_limited(self):
        hosts = list(addresses.prefix_addresses("2001:db8::/64", limit=3))
        assert len(hosts) == 3
        assert all(addresses.is_ipv6(host) for host in hosts)


class TestRandomAddresses:
    def test_count_and_membership(self):
        rng = random.Random(7)
        chosen = addresses.random_addresses_in_prefix("203.0.113.0/24", 10, rng)
        assert len(chosen) == len(set(chosen)) == 10
        assert all(value.startswith("203.0.113.") for value in chosen)

    def test_deterministic_given_seed(self):
        first = addresses.random_addresses_in_prefix("203.0.113.0/24", 5, random.Random(1))
        second = addresses.random_addresses_in_prefix("203.0.113.0/24", 5, random.Random(1))
        assert first == second

    def test_dense_request_uses_every_host(self):
        rng = random.Random(3)
        chosen = addresses.random_addresses_in_prefix("192.0.2.0/29", 6, rng)
        assert len(chosen) == 6

    def test_over_capacity_raises(self):
        with pytest.raises(ValueError):
            addresses.random_addresses_in_prefix("192.0.2.0/30", 5, random.Random(0))

    def test_ipv6_sparse_sampling(self):
        rng = random.Random(11)
        chosen = addresses.random_addresses_in_prefix("2001:db8::/48", 20, rng)
        assert len(chosen) == len(set(chosen)) == 20
        assert all(addresses.is_ipv6(value) for value in chosen)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_canonical_roundtrip_ipv4(value):
    import ipaddress

    text = str(ipaddress.IPv4Address(value))
    assert addresses.canonical(text) == text
    assert addresses.is_ipv4(text)


@given(st.integers(min_value=0, max_value=2**128 - 1))
def test_family_detection_ipv6(value):
    import ipaddress

    text = str(ipaddress.IPv6Address(value))
    assert addresses.is_ipv6(text)
