"""Tests for the churn model and misconfiguration injection."""

import random

from repro.protocols.bgp.speaker import BgpSpeakerConfig
from repro.protocols.ssh.server import SshServerConfig
from repro.simnet.churn import ChurnEvent, ChurnModel
from repro.simnet.device import Device, DeviceRole, Interface, ServiceType
from repro.simnet.misconfig import (
    apply_service_acl,
    assign_duplicate_bgp_identifiers,
    assign_shared_ssh_keys,
)


def ssh_device(index, addresses=("10.0.0.1",)):
    return Device(
        device_id=f"dev-{index}",
        role=DeviceRole.SERVER,
        home_asn=1,
        interfaces=[
            Interface(name=f"e{i}", address=address, asn=1) for i, address in enumerate(addresses)
        ],
        ssh_config=SshServerConfig.generate(f"dev-{index}"),
    )


class TestChurnModel:
    def test_owner_override_before_and_after(self):
        model = ChurnModel([ChurnEvent(address="10.0.0.1", switch_time=50.0, new_device_id="d2")])
        assert model.owner_override("10.0.0.1", 10.0) is None
        assert model.owner_override("10.0.0.1", 60.0) == "d2"
        assert model.owner_override("10.0.0.9", 60.0) is None

    def test_sample_respects_fraction(self):
        addresses = [f"10.0.0.{i}" for i in range(1, 101)]
        model = ChurnModel.sample(addresses, ["d1", "d2"], fraction=0.1, switch_time=5.0, rng=random.Random(1))
        assert len(model) == 10
        assert {event.address for event in model.events()} <= set(addresses)

    def test_sample_zero_fraction_empty(self):
        model = ChurnModel.sample(["10.0.0.1"], ["d1"], fraction=0.0, switch_time=5.0, rng=random.Random(1))
        assert len(model) == 0


class TestSharedSshKeys:
    def test_groups_share_fingerprint(self):
        devices = [ssh_device(i) for i in range(40)]
        groups = assign_shared_ssh_keys(devices, fraction=0.5, group_count=2, rng=random.Random(3))
        assert groups
        for group in groups:
            fingerprints = {device.ssh_config.host_key.fingerprint() for device in group}
            assert len(fingerprints) == 1

    def test_unselected_devices_keep_unique_keys(self):
        devices = [ssh_device(i) for i in range(40)]
        assign_shared_ssh_keys(devices, fraction=0.25, group_count=2, rng=random.Random(3))
        fingerprints = [device.ssh_config.host_key.fingerprint() for device in devices]
        # At least the untouched 30 devices keep distinct keys.
        assert len(set(fingerprints)) >= 30

    def test_too_few_devices_no_groups(self):
        devices = [ssh_device(0)]
        assert assign_shared_ssh_keys(devices, fraction=1.0, group_count=2, rng=random.Random(3)) == []


class TestDuplicateBgpIdentifiers:
    def test_duplicates_assigned(self):
        devices = []
        for i in range(20):
            device = ssh_device(i, addresses=(f"10.0.{i}.1", f"10.0.{i}.2"))
            device.bgp_config = BgpSpeakerConfig(asn=100 + i, bgp_identifier=f"10.0.{i}.1")
            devices.append(device)
        affected = assign_duplicate_bgp_identifiers(devices, fraction=0.3, rng=random.Random(5))
        assert len(affected) == 6
        assert all(device.bgp_config.bgp_identifier == "1.1.1.1" for device in affected)

    def test_no_bgp_devices_no_effect(self):
        devices = [ssh_device(i) for i in range(5)]
        assert assign_duplicate_bgp_identifiers(devices, fraction=1.0, rng=random.Random(5)) == []


class TestServiceAcl:
    def test_acl_reduces_exposed_addresses(self):
        devices = [ssh_device(i, addresses=(f"10.1.{i}.1", f"10.1.{i}.2", f"10.1.{i}.3")) for i in range(10)]
        affected = apply_service_acl(devices, ServiceType.SSH, fraction=0.5, rng=random.Random(7))
        assert len(affected) == 5
        for device in affected:
            exposed = device.service_addresses(ServiceType.SSH)
            assert 1 <= len(exposed) < 3

    def test_single_address_devices_not_affected(self):
        devices = [ssh_device(i) for i in range(10)]
        assert apply_service_acl(devices, ServiceType.SSH, fraction=1.0, rng=random.Random(7)) == []
