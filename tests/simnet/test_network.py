"""Tests for the probe-level behaviour of the simulated Internet."""

import pytest

from repro.errors import SimulationError
from repro.net.addresses import AddressFamily
from repro.protocols.bgp.client import BgpScanClient
from repro.protocols.bgp.speaker import BgpSpeakerConfig
from repro.protocols.snmp.client import SnmpScanClient
from repro.protocols.snmp.engine import SnmpEngineConfig
from repro.protocols.ssh.client import SshScanClient
from repro.protocols.ssh.server import SshServerConfig
from repro.simnet.asn import AsRegistry, AsRole, AutonomousSystem
from repro.simnet.churn import ChurnEvent, ChurnModel
from repro.simnet.device import Device, DeviceRole, Interface, ServiceType
from repro.simnet.network import ProbeOutcome, SimulatedInternet, VantagePoint

VP = VantagePoint(name="test-vp")


def build_network(rate_limit_threshold=None, loss_rate=0.0, churn=None):
    registry = AsRegistry()
    registry.add(
        AutonomousSystem(
            asn=3320, name="ISP-A", role=AsRole.ISP, rate_limit_threshold=rate_limit_threshold
        )
    )
    registry.add(AutonomousSystem(asn=14061, name="Cloud-A", role=AsRole.CLOUD))
    router = Device(
        device_id="rtr-1",
        role=DeviceRole.BORDER_ROUTER,
        home_asn=3320,
        interfaces=[
            Interface(name="ge-0", address="10.0.0.1", asn=3320),
            Interface(name="ge-1", address="10.0.0.2", asn=3320),
            Interface(name="v6", address="2001:db8::1", asn=3320),
        ],
        ssh_config=SshServerConfig.generate("rtr-1"),
        bgp_config=BgpSpeakerConfig(asn=3320, bgp_identifier="10.0.0.1"),
        snmp_config=SnmpEngineConfig.generate("rtr-1"),
        service_acl={ServiceType.SSH: frozenset({"10.0.0.1"})},
    )
    server = Device(
        device_id="srv-1",
        role=DeviceRole.SERVER,
        home_asn=14061,
        interfaces=[Interface(name="eth0", address="100.64.0.10", asn=14061)],
        ssh_config=SshServerConfig.generate("srv-1"),
    )
    bare = Device(
        device_id="bare-1",
        role=DeviceRole.SERVER,
        home_asn=14061,
        interfaces=[Interface(name="eth0", address="100.64.0.20", asn=14061)],
    )
    return SimulatedInternet(
        registry=registry,
        devices=[router, server, bare],
        churn=churn,
        seed=3,
        loss_rate=loss_rate,
    )


class TestOwnership:
    def test_device_lookup_by_address(self):
        network = build_network()
        assert network.device_for("10.0.0.2").device_id == "rtr-1"
        assert network.device_for("203.0.113.1") is None

    def test_duplicate_device_rejected(self):
        network = build_network()
        with pytest.raises(SimulationError):
            network.add_device(network.device("rtr-1"))

    def test_duplicate_address_rejected(self):
        network = build_network()
        clone = Device(
            device_id="other",
            role=DeviceRole.SERVER,
            home_asn=14061,
            interfaces=[Interface(name="eth0", address="100.64.0.10", asn=14061)],
        )
        with pytest.raises(SimulationError):
            network.add_device(clone)

    def test_asn_of(self):
        network = build_network()
        assert network.asn_of("10.0.0.1") == 3320
        assert network.asn_of("100.64.0.10") == 14061
        assert network.asn_of("198.18.0.1") is None

    def test_all_addresses_by_family(self):
        network = build_network()
        assert "2001:db8::1" in network.all_addresses(AddressFamily.IPV6)
        assert "2001:db8::1" not in network.all_addresses(AddressFamily.IPV4)
        assert len(network.all_addresses()) == 5

    def test_ground_truth_sets(self):
        network = build_network()
        ipv4_sets = network.ground_truth_alias_sets(AddressFamily.IPV4)
        assert frozenset({"10.0.0.1", "10.0.0.2"}) in ipv4_sets
        all_sets = network.ground_truth_alias_sets()
        assert frozenset({"10.0.0.1", "10.0.0.2", "2001:db8::1"}) in all_sets


class TestTcpProbing:
    def test_ssh_on_allowed_address_is_responsive(self):
        network = build_network()
        assert network.probe_tcp_syn("10.0.0.1", 22, VP) is ProbeOutcome.RESPONSIVE

    def test_ssh_on_acl_blocked_address_is_filtered(self):
        network = build_network()
        assert network.probe_tcp_syn("10.0.0.2", 22, VP) is ProbeOutcome.FILTERED

    def test_port_without_service_is_closed(self):
        network = build_network()
        assert network.probe_tcp_syn("100.64.0.10", 179, VP) is ProbeOutcome.CLOSED
        assert network.probe_tcp_syn("100.64.0.20", 22, VP) is ProbeOutcome.CLOSED

    def test_unknown_address_unreachable(self):
        network = build_network()
        assert network.probe_tcp_syn("198.18.0.1", 22, VP) is ProbeOutcome.UNREACHABLE


class TestApplicationConnections:
    def test_ssh_scan_through_network(self):
        network = build_network()
        connection = network.connect("100.64.0.10", ServiceType.SSH, VP)
        record = SshScanClient().scan("100.64.0.10", connection)
        assert record.has_identifier

    def test_bgp_scan_through_network(self):
        network = build_network()
        connection = network.connect("10.0.0.2", ServiceType.BGP, VP)
        record = BgpScanClient().scan("10.0.0.2", connection)
        assert record.open_message.bgp_identifier == "10.0.0.1"

    def test_snmp_scan_through_network(self):
        network = build_network()
        connection = network.connect("10.0.0.1", ServiceType.SNMPV3, VP)
        record = SnmpScanClient().scan("10.0.0.1", connection)
        assert record.has_identifier

    def test_connect_returns_none_when_filtered(self):
        network = build_network()
        assert network.connect("10.0.0.2", ServiceType.SSH, VP) is None
        assert network.connect("100.64.0.20", ServiceType.SSH, VP) is None
        assert network.connect("198.18.0.1", ServiceType.SSH, VP) is None


class TestRateLimiting:
    def test_single_vantage_gets_rate_limited(self):
        network = build_network(rate_limit_threshold=1)
        vantage = VantagePoint(name="single")
        outcomes = [network.probe_tcp_syn("10.0.0.1", 22, vantage) for _ in range(30)]
        assert outcomes[0] is ProbeOutcome.RESPONSIVE
        assert ProbeOutcome.RATE_LIMITED in outcomes[1:]

    def test_distributed_vantage_not_rate_limited(self):
        network = build_network(rate_limit_threshold=1)
        vantage = VantagePoint(name="distributed", distributed=True)
        outcomes = [network.probe_tcp_syn("10.0.0.1", 22, vantage) for _ in range(30)]
        assert ProbeOutcome.RATE_LIMITED not in outcomes

    def test_reset_rate_limits(self):
        network = build_network(rate_limit_threshold=1)
        vantage = VantagePoint(name="single")
        for _ in range(30):
            network.probe_tcp_syn("10.0.0.1", 22, vantage)
        network.reset_rate_limits()
        assert network.probe_tcp_syn("10.0.0.1", 22, vantage) is ProbeOutcome.RESPONSIVE


class TestLossAndChurn:
    def test_loss_rate_zero_never_loses(self):
        network = build_network(loss_rate=0.0)
        outcomes = {network.probe_tcp_syn("100.64.0.10", 22, VP) for _ in range(10)}
        assert outcomes == {ProbeOutcome.RESPONSIVE}

    def test_full_loss_drops_everything(self):
        network = build_network(loss_rate=1.0)
        # Loss is checked after rate limiting, before service lookup.
        assert network.probe_tcp_syn("100.64.0.10", 22, VP) is ProbeOutcome.LOST

    def test_churn_moves_ownership_after_switch_time(self):
        churn = ChurnModel([ChurnEvent(address="100.64.0.10", switch_time=100.0, new_device_id="rtr-1")])
        network = build_network(churn=churn)
        assert network.device_for("100.64.0.10", now=0.0).device_id == "srv-1"
        assert network.device_for("100.64.0.10", now=200.0).device_id == "rtr-1"


class TestIpidSampling:
    def test_sample_ipid_returns_value(self):
        network = build_network()
        value = network.sample_ipid("10.0.0.1", VP, now=1.0)
        assert value is not None
        assert 0 <= value < 65536

    def test_sample_ipid_unknown_address(self):
        network = build_network()
        assert network.sample_ipid("198.18.0.1", VP) is None
