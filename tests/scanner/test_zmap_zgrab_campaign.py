"""Tests for the SYN scanner, the grabber, and the two-phase campaign."""

import pytest

from repro.net.addresses import AddressFamily
from repro.scanner.blocklist import Blocklist
from repro.scanner.campaign import ScanCampaign
from repro.scanner.zgrab import ZgrabScanner
from repro.scanner.zmap import ZmapScanner
from repro.simnet.device import ServiceType
from repro.simnet.network import VantagePoint
from repro.simnet.topology import generate_topology, small_topology_config

VP = VantagePoint(name="scan-vp")


@pytest.fixture(scope="module")
def network():
    # Rate limiting is exercised in dedicated tests; exact-coverage assertions
    # here need every probe to reach its target.
    config = small_topology_config(
        seed=23,
        loss_rate=0.0,
        cloud_rate_limited_fraction=0.0,
        isp_rate_limited_fraction=0.0,
    )
    return generate_topology(config)


@pytest.fixture(scope="module")
def ipv4_targets(network):
    return sorted(network.all_addresses(AddressFamily.IPV4))


class TestZmap:
    def test_finds_exactly_the_ssh_exposed_addresses(self, network, ipv4_targets):
        scanner = ZmapScanner(network, VP, seed=1)
        result = scanner.scan(ipv4_targets, 22)
        expected = {
            address
            for device in network.devices()
            for address in device.service_addresses(ServiceType.SSH)
            if address in set(ipv4_targets)
        }
        assert set(result.responsive) == expected
        assert result.probed == len(ipv4_targets)

    def test_outcome_counters_sum_to_probed(self, network, ipv4_targets):
        result = ZmapScanner(network, VP, seed=1).scan(ipv4_targets, 179)
        assert sum(result.outcomes.values()) == result.probed

    def test_blocklist_excludes_targets(self, network, ipv4_targets):
        blocklist = Blocklist([ipv4_targets[0]])
        result = ZmapScanner(network, VP, blocklist=blocklist, seed=1).scan(ipv4_targets, 22)
        assert result.probed == len(ipv4_targets) - 1
        assert ipv4_targets[0] not in result.responsive

    def test_empty_target_list(self, network):
        result = ZmapScanner(network, VP).scan([], 22)
        assert result.probed == 0
        assert result.responsive == ()

    def test_timestamps_advance_with_rate(self, network, ipv4_targets):
        result = ZmapScanner(network, VP, probes_per_second=1000.0).scan(ipv4_targets, 22)
        assert result.finished_at > result.started_at


class TestZgrab:
    def test_ssh_grab_returns_identifier_records(self, network):
        ssh_addresses = [
            address
            for device in network.devices()
            for address in device.service_addresses(ServiceType.SSH)
        ][:50]
        records = ZgrabScanner(network, VP).grab(ServiceType.SSH, ssh_addresses)
        assert len(records) >= 0.8 * len(ssh_addresses)
        assert all(record.success for record in records)
        assert any(record.has_identifier for record in records)

    def test_grab_skips_non_service_addresses(self, network):
        bare = [
            device.addresses()[0]
            for device in network.devices()
            if not device.runs_service(ServiceType.BGP)
        ][:20]
        records = ZgrabScanner(network, VP).grab(ServiceType.BGP, bare)
        assert records == []


class TestCampaign:
    def test_tcp_campaign_has_both_phases(self, network, ipv4_targets):
        campaign = ScanCampaign(network, VP, seed=2)
        result = campaign.scan_service(ServiceType.SSH, ipv4_targets)
        assert result.syn_result is not None
        assert set(result.responsive_addresses) <= set(result.syn_result.responsive)
        assert result.finished_at >= result.started_at
        assert result.identified_addresses

    def test_snmp_campaign_has_no_syn_phase(self, network, ipv4_targets):
        campaign = ScanCampaign(network, VP, seed=2)
        result = campaign.scan_service(ServiceType.SNMPV3, ipv4_targets)
        assert result.syn_result is None
        expected = {
            address
            for device in network.devices()
            for address in device.service_addresses(ServiceType.SNMPV3)
            if address in set(ipv4_targets)
        }
        assert set(result.responsive_addresses) == expected

    def test_bgp_identified_subset_of_responsive(self, network, ipv4_targets):
        campaign = ScanCampaign(network, VP, seed=2)
        result = campaign.scan_service(ServiceType.BGP, ipv4_targets)
        # Some speakers close immediately without an OPEN: responsive but no identifier.
        assert set(result.identified_addresses) <= set(result.responsive_addresses)
