"""Topology generation: build a paper-like Internet from a configuration.

The generator creates autonomous systems of three roles and populates them
with devices whose service mix reproduces the qualitative structure the
paper measures:

* **cloud providers** — many single- or dual-address servers running SSH,
  mostly dual-stack, rarely running SNMP, never speaking BGP.  They are the
  reason SSH dominates the alias-set counts and the dual-stack counts.
* **ISPs** — routers with many interfaces running SNMPv3 and sometimes SSH;
  border routers speak BGP and hold interfaces in neighbouring ASes, which
  is why BGP alias sets are larger and frequently span multiple ASes.  ISPs
  also host CPE fleets whose SSH daemons ship with factory-default keys.
* **enterprises** — small ASes with a handful of devices, broadening the
  "sets per AS" distribution.

Every knob that shapes a table or figure of the paper is exposed on
:class:`TopologyConfig`; the defaults are tuned so that the experiment
drivers reproduce the paper's relative results at a laptop-friendly scale.
"""

from __future__ import annotations

import dataclasses
import random

from repro.net.ipid import (
    ConstantIpidCounter,
    HighVelocityIpidCounter,
    IpidCounter,
    MonotonicIpidCounter,
    PerInterfaceIpidCounter,
    RandomIpidCounter,
)
from repro.protocols.bgp.capabilities import Capability
from repro.protocols.bgp.speaker import BgpSpeakerConfig, BgpSpeakerStyle
from repro.protocols.snmp.engine import SnmpEngineConfig
from repro.protocols.snmp.engine_id import (
    ENTERPRISE_CISCO,
    ENTERPRISE_HUAWEI,
    ENTERPRISE_JUNIPER,
    ENTERPRISE_MIKROTIK,
    ENTERPRISE_NETSNMP,
    EngineId,
)
from repro.protocols.ssh.banner import SshBanner
from repro.protocols.ssh.kex import KexInit
from repro.protocols.ssh.server import SshServerConfig
from repro.simnet.address_plan import InterfaceAddressPool, PrefixAllocator
from repro.simnet.asn import AsRegistry, AsRole, AutonomousSystem
from repro.simnet.churn import ChurnModel
from repro.simnet.device import Device, DeviceRole, Interface, ServiceType
from repro.simnet.misconfig import (
    apply_service_acl,
    assign_duplicate_bgp_identifiers,
    assign_shared_ssh_keys,
)
from repro.simnet.network import SimulatedInternet

# --------------------------------------------------------------------------- #
# Vendor profiles
# --------------------------------------------------------------------------- #

#: SSH implementation profiles: (vendor, banner, KEXINIT algorithm lists).
_SSH_PROFILES: list[tuple[str, SshBanner, KexInit]] = [
    (
        "openssh-ubuntu",
        SshBanner(softwareversion="OpenSSH_8.9p1", comments="Ubuntu-3ubuntu0.1"),
        KexInit(),
    ),
    (
        "openssh-debian",
        SshBanner(softwareversion="OpenSSH_8.4p1", comments="Debian-5+deb11u1"),
        KexInit(
            kex_algorithms=("curve25519-sha256", "ecdh-sha2-nistp256", "diffie-hellman-group14-sha256"),
            server_host_key_algorithms=("rsa-sha2-512", "rsa-sha2-256", "ssh-ed25519"),
        ),
    ),
    (
        "openssh-9",
        SshBanner(softwareversion="OpenSSH_9.3"),
        KexInit(
            kex_algorithms=(
                "sntrup761x25519-sha512@openssh.com",
                "curve25519-sha256",
                "ecdh-sha2-nistp256",
            ),
        ),
    ),
    (
        "dropbear",
        SshBanner(softwareversion="dropbear_2020.81"),
        KexInit(
            kex_algorithms=("curve25519-sha256", "diffie-hellman-group14-sha256"),
            server_host_key_algorithms=("ssh-ed25519", "ssh-rsa"),
            encryption_algorithms_client_to_server=("aes128-ctr", "aes256-ctr"),
            encryption_algorithms_server_to_client=("aes128-ctr", "aes256-ctr"),
            mac_algorithms_client_to_server=("hmac-sha2-256", "hmac-sha1"),
            mac_algorithms_server_to_client=("hmac-sha2-256", "hmac-sha1"),
            compression_algorithms_client_to_server=("none",),
            compression_algorithms_server_to_client=("none",),
        ),
    ),
    (
        "cisco",
        SshBanner(softwareversion="Cisco-1.25"),
        KexInit(
            kex_algorithms=("ecdh-sha2-nistp256", "diffie-hellman-group14-sha256"),
            server_host_key_algorithms=("ssh-rsa",),
            encryption_algorithms_client_to_server=("aes128-ctr", "aes192-ctr", "aes256-ctr"),
            encryption_algorithms_server_to_client=("aes128-ctr", "aes192-ctr", "aes256-ctr"),
            mac_algorithms_client_to_server=("hmac-sha2-256", "hmac-sha1"),
            mac_algorithms_server_to_client=("hmac-sha2-256", "hmac-sha1"),
            compression_algorithms_client_to_server=("none",),
            compression_algorithms_server_to_client=("none",),
        ),
    ),
    (
        "mikrotik",
        SshBanner(softwareversion="ROSSSH"),
        KexInit(
            kex_algorithms=("curve25519-sha256", "ecdh-sha2-nistp256", "diffie-hellman-group14-sha1"),
            server_host_key_algorithms=("rsa-sha2-256", "ssh-rsa"),
        ),
    ),
]

#: Router vendors: (vendor, SNMP enterprise number, BGP hold time, capability set).
_ROUTER_VENDORS: list[tuple[str, int, int, tuple[Capability, ...]]] = [
    ("cisco", ENTERPRISE_CISCO, 180, (Capability.route_refresh_cisco(), Capability.route_refresh())),
    (
        "juniper",
        ENTERPRISE_JUNIPER,
        90,
        (Capability.route_refresh(), Capability.multiprotocol(afi=1, safi=1)),
    ),
    (
        "huawei",
        ENTERPRISE_HUAWEI,
        180,
        (Capability.route_refresh(), Capability.multiprotocol(afi=1, safi=1), Capability.multiprotocol(afi=2, safi=1)),
    ),
    ("mikrotik", ENTERPRISE_MIKROTIK, 240, (Capability.route_refresh(),)),
    ("linux-frr", ENTERPRISE_NETSNMP, 90, (Capability.route_refresh(), Capability.multiprotocol(afi=1, safi=1))),
]


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class TopologyConfig:
    """Knobs controlling the generated Internet.

    ``scale`` multiplies every device count; tests use a small scale, the
    paper scenario uses 1.0 (or larger when more statistical weight is
    needed).

    Frozen: a config is shared between the scenario cache key, the
    topology builder and longitudinal campaigns, so every variation must
    go through the constructor or :func:`dataclasses.replace` instead of
    post-construction mutation.
    """

    seed: int = 42
    scale: float = 1.0

    # Cloud providers
    n_cloud_ases: int = 10
    cloud_servers_largest: int = 900
    cloud_as_decay: float = 0.76
    cloud_multi_address_fraction: float = 0.52
    cloud_extra_address_max: int = 5
    cloud_dual_stack_fraction: float = 0.72
    # Servers holding several IPv4 addresses are less often dual-stack than
    # single-address hosts, which keeps most dual-stack sets at one IPv4 plus
    # one IPv6 address (Table 4's "88% of sets contain a single pair").
    cloud_multi_address_dual_stack_fraction: float = 0.35
    cloud_server_snmp_fraction: float = 0.02
    cloud_rate_limited_fraction: float = 0.6
    cloud_rate_limit_threshold: int = 500

    # ISPs
    n_isp_ases: int = 30
    isp_routers_largest: int = 170
    isp_as_decay: float = 0.88
    router_interface_mean: float = 5.0
    router_interface_max: int = 28
    border_router_fraction: float = 0.16
    border_external_interface_probability: float = 0.6
    router_snmp_fraction: float = 0.82
    router_ssh_fraction: float = 0.30
    router_dual_stack_fraction: float = 0.22
    # SNMPv3 management over IPv6 is rare in practice; only this fraction of
    # dual-stack routers answers SNMP on IPv6 interfaces.  This is the knob
    # behind the paper's ~30x SSH-vs-SNMPv3 dual-stack gap.
    router_snmp_ipv6_fraction: float = 0.18
    bgp_open_then_notify_fraction: float = 0.38
    cpe_largest: int = 260
    cpe_dual_stack_fraction: float = 0.15
    isp_rate_limited_fraction: float = 0.15
    isp_rate_limit_threshold: int = 400

    # Enterprises
    n_enterprise_ases: int = 60
    enterprise_devices_mean: float = 3.0
    enterprise_dual_stack_fraction: float = 0.3

    # Misconfiguration
    shared_ssh_key_fraction: float = 0.025
    shared_ssh_key_groups: int = 5
    duplicate_bgp_identifier_fraction: float = 0.02
    ssh_acl_fraction: float = 0.08
    snmp_acl_fraction: float = 0.12

    # Churn (addresses moving between devices over the campaign duration)
    churn_fraction: float = 0.004
    churn_switch_time: float = 7 * 86400.0

    # Probe-level behaviour
    loss_rate: float = 0.01

    def scaled(self, count: float) -> int:
        """Apply the global scale to a device count (at least 1)."""
        return max(1, int(round(count * self.scale)))


# --------------------------------------------------------------------------- #
# Generator
# --------------------------------------------------------------------------- #
class _TopologyBuilder:
    """Stateful helper that builds one topology from a config."""

    def __init__(self, config: TopologyConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.registry = AsRegistry()
        self.devices: list[Device] = []
        self.allocator = PrefixAllocator()
        self._pools_v4: dict[int, InterfaceAddressPool] = {}
        self._pools_v6: dict[int, InterfaceAddressPool] = {}
        self._device_counter = 0

    # -- AS and address-space helpers ---------------------------------- #
    def _new_as(self, name: str, role: AsRole, rate_limit_threshold: int | None) -> AutonomousSystem:
        asn = self._allocate_asn(role)
        autonomous_system = AutonomousSystem(
            asn=asn,
            name=name,
            role=role,
            ipv4_prefixes=[self.allocator.allocate_ipv4()],
            ipv6_prefixes=[self.allocator.allocate_ipv6()],
            rate_limit_threshold=rate_limit_threshold,
        )
        self.registry.add(autonomous_system)
        self._pools_v4[asn] = InterfaceAddressPool(
            autonomous_system.ipv4_prefixes, random.Random(self.rng.randrange(1 << 30))
        )
        self._pools_v6[asn] = InterfaceAddressPool(
            autonomous_system.ipv6_prefixes, random.Random(self.rng.randrange(1 << 30))
        )
        return autonomous_system

    def _allocate_asn(self, role: AsRole) -> int:
        # Roughly 20% of ASes receive a 32-bit ASN so the BGP four-octet AS
        # capability path is exercised.
        if self.rng.random() < 0.2:
            return 396000 + len(self.registry) * 17 + self.rng.randrange(11)
        base = {
            AsRole.CLOUD: 14000,
            AsRole.ISP: 3000,
            AsRole.ENTERPRISE: 30000,
            AsRole.EDUCATION: 1100,
            AsRole.IXP: 6000,
        }[role]
        return base + len(self.registry) * 7 + self.rng.randrange(5)

    def _draw_v4(self, asn: int, count: int = 1) -> list[str]:
        return self._pools_v4[asn].draw(count)

    def _draw_v6(self, asn: int, count: int = 1) -> list[str]:
        return self._pools_v6[asn].draw(count)

    def _next_device_id(self, prefix: str) -> str:
        self._device_counter += 1
        return f"{prefix}-{self._device_counter:06d}"

    # -- IPID behaviour mixes ------------------------------------------ #
    def _server_ipid(self) -> IpidCounter:
        # Servers (mostly Linux) predominantly use random or constant IPIDs,
        # which makes them invisible to MIDAR — the reason only a small
        # fraction of SSH-derived sets can be verified (Table 2 text).  A
        # single network stack serves every address, so per-interface
        # counters are rare on hosts.
        roll = self.rng.random()
        seed_rng = random.Random(self.rng.randrange(1 << 30))
        self.rng.random()  # unused draw: keeps the pinned topologies' RNG sequence
        if roll < 0.45:
            return RandomIpidCounter(rng=seed_rng)
        if roll < 0.72:
            return ConstantIpidCounter(value=0)
        if roll < 0.96:
            return MonotonicIpidCounter(start=seed_rng.randrange(1 << 16), velocity=3.0, rng=seed_rng)
        if roll < 0.97:
            return PerInterfaceIpidCounter(velocity=5.0, rng=seed_rng)
        return HighVelocityIpidCounter(start=seed_rng.randrange(1 << 16), rng=seed_rng)

    def _router_ipid(self) -> IpidCounter:
        roll = self.rng.random()
        seed_rng = random.Random(self.rng.randrange(1 << 30))
        self.rng.random()  # unused draw: keeps the pinned topologies' RNG sequence
        if roll < 0.60:
            return MonotonicIpidCounter(start=seed_rng.randrange(1 << 16), velocity=8.0, rng=seed_rng)
        if roll < 0.72:
            return PerInterfaceIpidCounter(velocity=8.0, rng=seed_rng)
        if roll < 0.84:
            return RandomIpidCounter(rng=seed_rng)
        if roll < 0.92:
            return ConstantIpidCounter(value=0)
        return HighVelocityIpidCounter(start=seed_rng.randrange(1 << 16), rng=seed_rng)

    # -- SSH / SNMP / BGP config factories ------------------------------ #
    def _ssh_config(self, device_id: str, vendor_pool: list[int] | None = None) -> tuple[str, SshServerConfig]:
        indices = vendor_pool if vendor_pool is not None else list(range(len(_SSH_PROFILES)))
        vendor, banner, kex = _SSH_PROFILES[self.rng.choice(indices)]
        config = SshServerConfig.generate(seed=device_id, banner=banner, kex_init=kex)
        return vendor, config

    def _snmp_config(self, device_id: str, enterprise: int) -> SnmpEngineConfig:
        return SnmpEngineConfig(
            engine_id=EngineId.generate(device_id, enterprise=enterprise),
            engine_boots=self.rng.randint(1, 40),
        )

    def _bgp_config(
        self, asn: int, identifier: str, vendor_index: int, style: BgpSpeakerStyle
    ) -> BgpSpeakerConfig:
        _, __, hold_time, capabilities = _ROUTER_VENDORS[vendor_index]
        return BgpSpeakerConfig(
            asn=asn,
            bgp_identifier=identifier,
            hold_time=hold_time,
            capabilities=capabilities,
            style=style,
        )

    # -- Device factories ------------------------------------------------ #
    def _make_cloud_server(self, autonomous_system: AutonomousSystem) -> Device:
        config = self.config
        device_id = self._next_device_id(f"srv-as{autonomous_system.asn}")
        ipv4_count = 1
        if self.rng.random() < config.cloud_multi_address_fraction:
            # Most multi-address servers hold exactly two addresses; a thin
            # geometric tail reaches cloud_extra_address_max (Figure 3's
            # "more than 60% of SSH sets contain only two addresses").
            ipv4_count += 1 + min(
                int(self.rng.expovariate(1.7)), config.cloud_extra_address_max - 1
            )
        dual_stack_probability = (
            config.cloud_dual_stack_fraction
            if ipv4_count == 1
            else config.cloud_multi_address_dual_stack_fraction
        )
        ipv6_count = 0
        if self.rng.random() < dual_stack_probability:
            ipv6_count = 1 if self.rng.random() < 0.85 else 2
        interfaces = [
            Interface(name=f"eth{i}", address=address, asn=autonomous_system.asn)
            for i, address in enumerate(self._draw_v4(autonomous_system.asn, ipv4_count))
        ]
        interfaces += [
            Interface(name=f"eth{ipv4_count + i}", address=address, asn=autonomous_system.asn)
            for i, address in enumerate(
                self._draw_v6(autonomous_system.asn, ipv6_count) if ipv6_count else []
            )
        ]
        vendor, ssh_config = self._ssh_config(device_id, vendor_pool=[0, 1, 2])
        snmp_config = None
        if self.rng.random() < config.cloud_server_snmp_fraction:
            snmp_config = self._snmp_config(device_id, ENTERPRISE_NETSNMP)
        return Device(
            device_id=device_id,
            role=DeviceRole.SERVER,
            home_asn=autonomous_system.asn,
            interfaces=interfaces,
            ssh_config=ssh_config,
            snmp_config=snmp_config,
            ipid_counter=self._server_ipid(),
            vendor=vendor,
        )

    def _make_router(
        self,
        autonomous_system: AutonomousSystem,
        role: DeviceRole,
        neighbor_asns: list[int],
    ) -> Device:
        config = self.config
        device_id = self._next_device_id(f"rtr-as{autonomous_system.asn}")
        vendor_index = self.rng.randrange(len(_ROUTER_VENDORS))
        vendor, enterprise, _, __ = _ROUTER_VENDORS[vendor_index]

        interface_count = 2 + min(
            int(self.rng.expovariate(1.0 / max(config.router_interface_mean - 2, 1))),
            config.router_interface_max - 2,
        )
        external_count = 0
        if role is DeviceRole.BORDER_ROUTER and neighbor_asns:
            if self.rng.random() < config.border_external_interface_probability:
                external_count = self.rng.randint(1, min(3, interface_count - 1))
        internal_count = interface_count - external_count

        interfaces: list[Interface] = []
        for i, address in enumerate(self._draw_v4(autonomous_system.asn, internal_count)):
            interfaces.append(Interface(name=f"ge-0/0/{i}", address=address, asn=autonomous_system.asn))
        for i in range(external_count):
            neighbor = self.rng.choice(neighbor_asns)
            address = self._draw_v4(neighbor, 1)[0]
            interfaces.append(Interface(name=f"xe-1/0/{i}", address=address, asn=neighbor))

        ipv6_count = 0
        if self.rng.random() < config.router_dual_stack_fraction:
            # Dual-stack routers number IPv6 on a sizeable share of their
            # links, so IPv6 alias sets from routers contain several
            # addresses (Figure 4's BGP/SNMPv3 curves).
            ipv6_count = max(2, interface_count // 2)
        for i, address in enumerate(
            self._draw_v6(autonomous_system.asn, ipv6_count) if ipv6_count else []
        ):
            interfaces.append(Interface(name=f"v6-{i}", address=address, asn=autonomous_system.asn))

        ssh_config = None
        ssh_vendor = vendor
        if self.rng.random() < config.router_ssh_fraction:
            pool = {"cisco": [4], "juniper": [1, 2], "huawei": [1], "mikrotik": [5], "linux-frr": [0, 1, 2]}[vendor]
            ssh_vendor, ssh_config = self._ssh_config(device_id, vendor_pool=pool)
        snmp_config = None
        service_acl: dict[ServiceType, frozenset[str]] = {}
        if self.rng.random() < config.router_snmp_fraction:
            snmp_config = self._snmp_config(device_id, enterprise)
            ipv4_only = frozenset(
                interface.address for interface in interfaces if ":" not in interface.address
            )
            has_ipv6 = len(ipv4_only) < len(interfaces)
            if has_ipv6 and self.rng.random() >= config.router_snmp_ipv6_fraction:
                service_acl[ServiceType.SNMPV3] = ipv4_only
        bgp_config = None
        if role is DeviceRole.BORDER_ROUTER:
            style = (
                BgpSpeakerStyle.OPEN_THEN_NOTIFY
                if self.rng.random() < config.bgp_open_then_notify_fraction
                else BgpSpeakerStyle.CLOSE_IMMEDIATELY
            )
            bgp_config = self._bgp_config(
                asn=autonomous_system.asn,
                identifier=interfaces[0].address,
                vendor_index=vendor_index,
                style=style,
            )

        return Device(
            device_id=device_id,
            role=role,
            home_asn=autonomous_system.asn,
            interfaces=interfaces,
            ssh_config=ssh_config,
            bgp_config=bgp_config,
            snmp_config=snmp_config,
            service_acl=service_acl,
            ipid_counter=self._router_ipid(),
            vendor=vendor if ssh_config is None else ssh_vendor,
        )

    def _make_cpe(self, autonomous_system: AutonomousSystem) -> Device:
        config = self.config
        device_id = self._next_device_id(f"cpe-as{autonomous_system.asn}")
        interfaces = [
            Interface(name="wan0", address=self._draw_v4(autonomous_system.asn, 1)[0], asn=autonomous_system.asn)
        ]
        if self.rng.random() < config.cpe_dual_stack_fraction:
            interfaces.append(
                Interface(name="wan0-v6", address=self._draw_v6(autonomous_system.asn, 1)[0], asn=autonomous_system.asn)
            )
        vendor, ssh_config = self._ssh_config(device_id, vendor_pool=[3, 5])
        return Device(
            device_id=device_id,
            role=DeviceRole.CPE,
            home_asn=autonomous_system.asn,
            interfaces=interfaces,
            ssh_config=ssh_config,
            ipid_counter=self._server_ipid(),
            vendor=vendor,
        )

    # -- Per-role AS builders -------------------------------------------- #
    def build_cloud(self) -> None:
        config = self.config
        for rank in range(config.n_cloud_ases):
            rate_limited = self.rng.random() < config.cloud_rate_limited_fraction
            autonomous_system = self._new_as(
                name=f"Cloud-{rank + 1}",
                role=AsRole.CLOUD,
                rate_limit_threshold=config.cloud_rate_limit_threshold if rate_limited else None,
            )
            server_count = config.scaled(config.cloud_servers_largest * (config.cloud_as_decay**rank))
            for _ in range(server_count):
                self.devices.append(self._make_cloud_server(autonomous_system))
            # A small amount of network infrastructure inside the cloud AS.
            for _ in range(max(1, server_count // 150)):
                self.devices.append(
                    self._make_router(autonomous_system, DeviceRole.CORE_ROUTER, neighbor_asns=[])
                )

    def build_isps(self) -> None:
        config = self.config
        isp_systems: list[AutonomousSystem] = []
        for rank in range(config.n_isp_ases):
            rate_limited = self.rng.random() < config.isp_rate_limited_fraction
            isp_systems.append(
                self._new_as(
                    name=f"ISP-{rank + 1}",
                    role=AsRole.ISP,
                    rate_limit_threshold=config.isp_rate_limit_threshold if rate_limited else None,
                )
            )
        asns = [system.asn for system in isp_systems]
        for rank, autonomous_system in enumerate(isp_systems):
            neighbor_asns = [asn for asn in asns if asn != autonomous_system.asn]
            router_count = config.scaled(config.isp_routers_largest * (config.isp_as_decay**rank))
            for _ in range(router_count):
                if self.rng.random() < config.border_router_fraction:
                    role = DeviceRole.BORDER_ROUTER
                elif self.rng.random() < 0.35:
                    role = DeviceRole.CORE_ROUTER
                else:
                    role = DeviceRole.ACCESS_ROUTER
                self.devices.append(self._make_router(autonomous_system, role, neighbor_asns))
            cpe_count = config.scaled(config.cpe_largest * (config.isp_as_decay**rank))
            for _ in range(cpe_count):
                self.devices.append(self._make_cpe(autonomous_system))

    def build_enterprises(self) -> None:
        config = self.config
        for rank in range(config.n_enterprise_ases):
            autonomous_system = self._new_as(
                name=f"Enterprise-{rank + 1}", role=AsRole.ENTERPRISE, rate_limit_threshold=None
            )
            device_count = max(1, int(self.rng.expovariate(1.0 / config.enterprise_devices_mean)))
            device_count = config.scaled(device_count)
            for index in range(device_count):
                if index == 0:
                    # Every enterprise has at least one gateway router.
                    self.devices.append(
                        self._make_router(autonomous_system, DeviceRole.BORDER_ROUTER, neighbor_asns=[])
                    )
                else:
                    self.devices.append(self._make_cloud_server(autonomous_system))

    # -- Misconfiguration and churn -------------------------------------- #
    def apply_misconfigurations(self) -> None:
        config = self.config
        assign_shared_ssh_keys(
            self.devices,
            fraction=config.shared_ssh_key_fraction,
            group_count=config.shared_ssh_key_groups,
            rng=self.rng,
        )
        assign_duplicate_bgp_identifiers(
            self.devices, fraction=config.duplicate_bgp_identifier_fraction, rng=self.rng
        )
        apply_service_acl(self.devices, ServiceType.SSH, config.ssh_acl_fraction, self.rng)
        apply_service_acl(self.devices, ServiceType.SNMPV3, config.snmp_acl_fraction, self.rng)

    def build_churn(self) -> ChurnModel:
        config = self.config
        addresses = [address for device in self.devices for address in device.addresses()]
        device_ids = [device.device_id for device in self.devices]
        return ChurnModel.sample(
            addresses=addresses,
            device_ids=device_ids,
            fraction=config.churn_fraction,
            switch_time=config.churn_switch_time,
            rng=self.rng,
        )

    def build(self) -> SimulatedInternet:
        self.build_cloud()
        self.build_isps()
        self.build_enterprises()
        self.apply_misconfigurations()
        churn = self.build_churn()
        return SimulatedInternet(
            registry=self.registry,
            devices=self.devices,
            churn=churn,
            seed=self.config.seed,
            loss_rate=self.config.loss_rate,
        )


def generate_topology(config: TopologyConfig | None = None) -> SimulatedInternet:
    """Generate a simulated Internet from ``config`` (defaults when omitted)."""
    return _TopologyBuilder(config or TopologyConfig()).build()


def small_topology_config(seed: int = 7, **overrides) -> TopologyConfig:
    """A small configuration for unit tests and quick examples.

    ``overrides`` are extra :class:`TopologyConfig` constructor fields
    (e.g. ``loss_rate=0.0``) — the config is frozen, so variations are
    declared here rather than assigned afterwards.
    """
    fields = dict(
        seed=seed,
        scale=1.0,
        n_cloud_ases=3,
        cloud_servers_largest=40,
        n_isp_ases=4,
        isp_routers_largest=18,
        cpe_largest=20,
        n_enterprise_ases=6,
        shared_ssh_key_groups=2,
    )
    fields.update(overrides)
    return TopologyConfig(**fields)
