"""Tests for the device/interface model."""

import pytest

from repro.errors import SimulationError
from repro.protocols.snmp.engine import SnmpEngineConfig
from repro.protocols.ssh.server import SshServerConfig
from repro.simnet.device import Device, DeviceRole, Interface, ServiceType


def make_device(**kwargs):
    defaults = dict(
        device_id="rtr-1",
        role=DeviceRole.CORE_ROUTER,
        home_asn=3320,
        interfaces=[
            Interface(name="ge-0/0/0", address="10.0.0.1", asn=3320),
            Interface(name="ge-0/0/1", address="10.0.0.2", asn=3320),
            Interface(name="v6-0", address="2001:db8::1", asn=3320),
        ],
    )
    defaults.update(kwargs)
    return Device(**defaults)


class TestAddresses:
    def test_family_split(self):
        device = make_device()
        assert device.ipv4_addresses() == ["10.0.0.1", "10.0.0.2"]
        assert device.ipv6_addresses() == ["2001:db8::1"]
        assert device.is_dual_stack

    def test_not_dual_stack_without_ipv6(self):
        device = make_device(interfaces=[Interface(name="e0", address="10.1.0.1", asn=1)])
        assert not device.is_dual_stack

    def test_asns(self):
        device = make_device(
            interfaces=[
                Interface(name="a", address="10.0.0.1", asn=3320),
                Interface(name="b", address="10.9.0.1", asn=701),
            ]
        )
        assert device.asns() == {3320, 701}

    def test_duplicate_interface_name_rejected(self):
        with pytest.raises(SimulationError):
            make_device(
                interfaces=[
                    Interface(name="e0", address="10.0.0.1", asn=1),
                    Interface(name="e0", address="10.0.0.2", asn=1),
                ]
            )

    def test_duplicate_address_rejected(self):
        with pytest.raises(SimulationError):
            make_device(
                interfaces=[
                    Interface(name="e0", address="10.0.0.1", asn=1),
                    Interface(name="e1", address="10.0.0.1", asn=1),
                ]
            )


class TestServices:
    def test_no_services_by_default(self):
        device = make_device()
        assert device.services() == []
        assert not device.runs_service(ServiceType.SSH)
        assert device.service_addresses(ServiceType.SSH) == []

    def test_ssh_answers_on_all_addresses_without_acl(self):
        device = make_device(ssh_config=SshServerConfig.generate("rtr-1"))
        assert device.service_addresses(ServiceType.SSH) == device.addresses()
        assert device.answers_on(ServiceType.SSH, "10.0.0.1")

    def test_acl_restricts_service(self):
        device = make_device(
            ssh_config=SshServerConfig.generate("rtr-1"),
            service_acl={ServiceType.SSH: frozenset({"10.0.0.1"})},
        )
        assert device.service_addresses(ServiceType.SSH) == ["10.0.0.1"]
        assert not device.answers_on(ServiceType.SSH, "10.0.0.2")

    def test_acl_for_one_service_does_not_affect_other(self):
        device = make_device(
            ssh_config=SshServerConfig.generate("rtr-1"),
            snmp_config=SnmpEngineConfig.generate("rtr-1"),
            service_acl={ServiceType.SSH: frozenset({"10.0.0.1"})},
        )
        assert device.service_addresses(ServiceType.SNMPV3) == device.addresses()

    def test_services_lists_configured_services(self):
        device = make_device(
            ssh_config=SshServerConfig.generate("rtr-1"),
            snmp_config=SnmpEngineConfig.generate("rtr-1"),
        )
        assert set(device.services()) == {ServiceType.SSH, ServiceType.SNMPV3}
