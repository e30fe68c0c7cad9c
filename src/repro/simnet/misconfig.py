"""Misconfiguration injection.

The paper's limitations section lists the ways the protocol-centric
identifiers can go wrong: SSH servers shipped with factory-default keys,
administrators copying the same key pair to many hosts, BGP speakers with
non-unique BGP identifiers, and services answering only on a subset of
interfaces.  The functions here inject exactly those behaviours into a
generated device population so the inference and validation code is tested
against them.
"""

from __future__ import annotations

import dataclasses
import random

from repro.protocols.ssh.hostkey import Ed25519HostKey
from repro.simnet.device import Device, ServiceType


def assign_shared_ssh_keys(
    devices: list[Device],
    fraction: float,
    group_count: int,
    rng: random.Random,
    key_seed_prefix: str = "factory-default",
) -> list[list[Device]]:
    """Give a fraction of SSH devices factory-default (shared) host keys.

    The selected devices are split into ``group_count`` groups; every device
    in a group receives the same host key while keeping its own banner and
    algorithm lists.  This is the scenario in which combining the key with
    the capability signature improves identifier uniqueness (and in which an
    identifier based on the key alone over-merges).

    Returns:
        The groups that were assigned a shared key (possibly fewer than
        ``group_count`` when few devices run SSH).
    """
    ssh_devices = [device for device in devices if device.ssh_config is not None]
    count = int(len(ssh_devices) * fraction)
    if count < 2 or group_count < 1:
        return []
    chosen = rng.sample(ssh_devices, count)
    groups: list[list[Device]] = [[] for _ in range(min(group_count, count))]
    for index, device in enumerate(chosen):
        groups[index % len(groups)].append(device)
    for group_index, group in enumerate(groups):
        shared_key = Ed25519HostKey.generate(f"{key_seed_prefix}-{group_index}")
        for device in group:
            device.ssh_config = dataclasses.replace(device.ssh_config, host_key=shared_key)
    return [group for group in groups if len(group) >= 2]


def assign_duplicate_bgp_identifiers(
    devices: list[Device],
    fraction: float,
    rng: random.Random,
    duplicate_identifier: str = "1.1.1.1",
) -> list[Device]:
    """Give a fraction of BGP speakers the same (mis-configured) BGP identifier.

    Returns the affected devices.
    """
    bgp_devices = [device for device in devices if device.bgp_config is not None]
    count = int(len(bgp_devices) * fraction)
    if count < 1:
        return []
    chosen = rng.sample(bgp_devices, count)
    for device in chosen:
        device.bgp_config = dataclasses.replace(device.bgp_config, bgp_identifier=duplicate_identifier)
    return chosen


def apply_service_acl(
    devices: list[Device],
    service: ServiceType,
    fraction: float,
    rng: random.Random,
    min_exposed: int = 1,
) -> list[Device]:
    """Restrict ``service`` to a random subset of interfaces on some devices.

    Only devices with at least two addresses are considered, because an ACL
    on a single-address device does not change anything observable.  Returns
    the affected devices.
    """
    candidates = [
        device
        for device in devices
        if device.runs_service(service) and len(device.addresses()) >= 2
    ]
    count = int(len(candidates) * fraction)
    if count < 1:
        return []
    affected = rng.sample(candidates, count)
    for device in affected:
        addresses = device.addresses()
        exposed_count = rng.randint(min_exposed, max(min_exposed, len(addresses) - 1))
        exposed = frozenset(rng.sample(addresses, exposed_count))
        device.service_acl[service] = exposed
    return affected
