"""Probe-level behaviour of the simulated Internet.

:class:`SimulatedInternet` is the single object scanners and baselines talk
to.  It owns the device population, answers TCP SYN probes and IPID
samples, hands out application-layer connections wired to the probed
device's service configuration, and models two effects that shape the
paper's results:

* **packet loss** — a small, deterministic pseudo-random fraction of probes
  receives no answer, and
* **single-vantage-point rate limiting** — ASes with an intrusion detection
  threshold start dropping probes from a vantage point that has already sent
  too many, while distributed scanners (the Censys-like source) stay below
  the threshold per vantage point and keep their coverage.  This reproduces
  the active-vs-Censys coverage gap of Table 1/3.

All pseudo-randomness is derived from a seed plus the probe description, so
campaigns are reproducible and independent of probing order.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

from repro.errors import SimulationError
from repro.net.addresses import AddressFamily, family_of
from repro.net.endpoint import Connection, LoopbackConnection
from repro.protocols.bgp.speaker import BgpSpeakerBehavior
from repro.protocols.snmp.engine import SnmpEngineBehavior
from repro.protocols.ssh.server import SshServerBehavior
from repro.simnet.asn import AsRegistry
from repro.simnet.churn import ChurnModel
from repro.simnet.device import SERVICE_PORTS, Device, ServiceType

# Scales an 8-byte digest onto [0, 1): the same float as dividing by 2**64.
_CHANCE_SCALE = 2.0**-64

_SERVICE_BY_PORT = {port: service for service, port in SERVICE_PORTS.items()}


class ProbeOutcome(enum.Enum):
    """Result of a transport-level probe."""

    RESPONSIVE = "responsive"          # SYN-ACK / service answered
    CLOSED = "closed"                  # RST / ICMP port unreachable
    FILTERED = "filtered"              # silently dropped (ACL / firewall)
    RATE_LIMITED = "rate_limited"      # dropped by the AS's IDS for this vantage
    LOST = "lost"                      # random packet loss
    UNREACHABLE = "unreachable"        # no device owns the address

    # Members are singletons compared by identity, so they hash by identity
    # too: in C, where Enum's own __hash__ (of the name) runs in Python.
    __hash__ = object.__hash__


@dataclasses.dataclass(frozen=True)
class VantagePoint:
    """A scanning origin.

    Attributes:
        name: label used in datasets (``"active-de"``, ``"censys-1"``, …).
        address: source IPv4 address of the prober.
        distributed: whether the owning organisation spreads its probes over
            many origins.  Distributed scanning keeps every origin under the
            per-vantage IDS threshold of target ASes.
    """

    name: str
    address: str = "192.0.2.250"
    distributed: bool = False


class SimulatedInternet:
    """The scannable network: devices, address ownership, probe behaviour."""

    def __init__(
        self,
        registry: AsRegistry,
        devices: list[Device],
        churn: ChurnModel | None = None,
        seed: int = 0,
        loss_rate: float = 0.01,
        rate_limit_drop_probability: float = 0.95,
        rate_limit_window: float = 86_400.0,
    ) -> None:
        self._registry = registry
        self._devices: dict[str, Device] = {}
        self._owner_by_address: dict[str, str] = {}
        self._asn_by_address: dict[str, int] = {}
        self._churn = churn or ChurnModel()
        self._chance_suffix = f"|{seed}"  # ends every _chance key string
        self._loss_rate = loss_rate
        self._rate_limit_drop_probability = rate_limit_drop_probability
        self._rate_limit_window = rate_limit_window
        self._probe_counts: dict[tuple[str, int, int], int] = {}
        for device in devices:
            self.add_device(device)

    # ------------------------------------------------------------------ #
    # Population management and ground truth
    # ------------------------------------------------------------------ #
    def add_device(self, device: Device) -> None:
        """Add a device, claiming all its interface addresses."""
        if device.device_id in self._devices:
            raise SimulationError(f"duplicate device id {device.device_id}")
        for interface in device.interfaces:
            if interface.address in self._owner_by_address:
                raise SimulationError(f"address {interface.address} owned by two devices")
        self._devices[device.device_id] = device
        for interface in device.interfaces:
            self._owner_by_address[interface.address] = device.device_id
            self._asn_by_address[interface.address] = interface.asn

    @property
    def registry(self) -> AsRegistry:
        """The AS registry backing this network."""
        return self._registry

    @property
    def churn(self) -> ChurnModel:
        """The churn model applied to address ownership."""
        return self._churn

    def devices(self) -> list[Device]:
        """Every device in the network."""
        return list(self._devices.values())

    def device(self, device_id: str) -> Device:
        """Return a device by id."""
        try:
            return self._devices[device_id]
        except KeyError as exc:
            raise SimulationError(f"unknown device {device_id}") from exc

    def device_for(self, address: str, now: float = 0.0) -> Device | None:
        """Return the device owning ``address`` at time ``now`` (churn applied)."""
        override = self._churn.owner_override(address, now)
        if override is not None:
            return self._devices.get(override)
        owner = self._owner_by_address.get(address)
        return self._devices.get(owner) if owner else None

    def asn_of(self, address: str) -> int | None:
        """Return the ASN owning ``address`` (independent of churn)."""
        return self._asn_by_address.get(address)

    def all_addresses(self, family: AddressFamily | None = None) -> list[str]:
        """Every address in the network, optionally filtered by family."""
        addresses = list(self._owner_by_address)
        if family is None:
            return addresses
        return [address for address in addresses if family_of(address) is family]

    def ground_truth_alias_sets(self, family: AddressFamily | None = None) -> list[frozenset[str]]:
        """True alias sets (one per device), optionally per address family."""
        sets = []
        for device in self._devices.values():
            if family is AddressFamily.IPV4:
                addresses = device.ipv4_addresses()
            elif family is AddressFamily.IPV6:
                addresses = device.ipv6_addresses()
            else:
                addresses = device.addresses()
            if addresses:
                sets.append(frozenset(addresses))
        return sets

    # ------------------------------------------------------------------ #
    # Deterministic pseudo-randomness and rate limiting
    # ------------------------------------------------------------------ #
    def _chance(self, key: str) -> float:
        """Deterministic value in [0, 1) derived from the seed and ``key``.

        ``key`` is the probe description joined by ``|``; the seed is
        appended to it before hashing.
        """
        digest = hashlib.blake2b((key + self._chance_suffix).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") * _CHANCE_SCALE

    def _register_probe(self, vantage: VantagePoint, address: str, now: float) -> bool:
        """Record a probe and return ``True`` if the AS's IDS drops it.

        Intrusion detection state is per (vantage, AS, time window): blocks
        are temporary in practice, so a campaign run on a later day starts
        from a clean slate even from the same vantage point.
        """
        asn = self._asn_by_address.get(address)
        if asn is None or asn not in self._registry:
            return False
        autonomous_system = self._registry.get(asn)
        threshold = autonomous_system.rate_limit_threshold
        if threshold is None or vantage.distributed:
            return False
        window = int(now // self._rate_limit_window)
        key = (vantage.name, asn, window)
        count = self._probe_counts.get(key, 0) + 1
        self._probe_counts[key] = count
        if count <= threshold:
            return False
        return self._chance(f"ids|{vantage.name}|{asn}|{address}") < self._rate_limit_drop_probability

    def reset_rate_limits(self) -> None:
        """Forget accumulated per-vantage probe counts (new campaign)."""
        self._probe_counts.clear()

    def export_probe_counts(self) -> dict[tuple[str, int, int], int]:
        """Copy of the per-(vantage, AS, window) IDS probe counters.

        Checkpoints persist these so a resumed campaign whose next
        snapshot falls inside an already-probed rate-limit window sees the
        same IDS state the uninterrupted run would (see
        :mod:`repro.persist.stream`).
        """
        return dict(self._probe_counts)

    def restore_probe_counts(self, counts: dict[tuple[str, int, int], int]) -> None:
        """Replace the IDS probe counters (checkpoint resume)."""
        self._probe_counts = dict(counts)

    def _service_answers(
        self, device: Device, service: ServiceType, address: str, now: float
    ) -> bool:
        """Whether ``device`` answers ``service`` on ``address`` at ``now``.

        A churned address is re-homed onto its new device without appearing
        in that device's interface configuration, so the plain per-interface
        ACL check would leave it dark.  Re-homed addresses instead answer
        every service the new device exposes anywhere — with the new
        device's identity, which is exactly the mechanism behind the paper's
        MIDAR-vs-SSH disagreement during the three-week window.
        """
        if device.answers_on(service, address):
            return True
        if self._churn.owner_override(address, now) == device.device_id:
            return bool(device.service_addresses(service))
        return False

    def _lost(self, key: str) -> bool:
        return self._chance("loss|" + key) < self._loss_rate

    # ------------------------------------------------------------------ #
    # Probing primitives
    # ------------------------------------------------------------------ #
    def probe_tcp_syn(
        self, address: str, port: int, vantage: VantagePoint, now: float = 0.0
    ) -> ProbeOutcome:
        """Send a TCP SYN to ``address:port`` and classify the outcome."""
        device = self.device_for(address, now)
        if device is None:
            return ProbeOutcome.UNREACHABLE
        if self._register_probe(vantage, address, now):
            return ProbeOutcome.RATE_LIMITED
        if self._lost(f"syn|{vantage.name}|{address}|{port}|{int(now)}"):
            return ProbeOutcome.LOST
        service = _SERVICE_BY_PORT.get(port)
        if service is None or not device.runs_service(service):
            return ProbeOutcome.CLOSED
        if not self._service_answers(device, service, address, now):
            return ProbeOutcome.FILTERED
        return ProbeOutcome.RESPONSIVE

    def connect(
        self, address: str, service: ServiceType, vantage: VantagePoint, now: float = 0.0
    ) -> Connection | None:
        """Open an application-layer connection to ``service`` on ``address``.

        Returns ``None`` when the transport probe would not have elicited a
        SYN-ACK (or, for SNMP over UDP, when the agent would not answer).
        """
        port = SERVICE_PORTS[service]
        if service is ServiceType.SNMPV3:
            device = self.device_for(address, now)
            if device is None or self._register_probe(vantage, address, now):
                return None
            if self._lost(f"udp|{vantage.name}|{address}|{port}|{int(now)}"):
                return None
            if not device.runs_service(service) or not self._service_answers(
                device, service, address, now
            ):
                return None
            return LoopbackConnection(SnmpEngineBehavior(device.snmp_config, now=now))
        outcome = self.probe_tcp_syn(address, port, vantage, now)
        if outcome is not ProbeOutcome.RESPONSIVE:
            return None
        device = self.device_for(address, now)
        if service is ServiceType.SSH:
            return LoopbackConnection(SshServerBehavior(device.ssh_config))
        return LoopbackConnection(BgpSpeakerBehavior(device.bgp_config))

    def sample_ipid(self, address: str, vantage: VantagePoint, now: float = 0.0) -> int | None:
        """Elicit one response packet from ``address`` and return its IPID.

        Used by the IPID-based baselines (MIDAR, Ally, Speedtrap).  The
        answer comes from the owning device's IPID counter keyed by the
        probed interface, so shared counters expose aliases and
        per-interface counters do not.
        """
        device = self.device_for(address, now)
        if device is None:
            return None
        if self._register_probe(vantage, address, now):
            return None
        if self._lost(f"ipid|{vantage.name}|{address}|{int(now * 10)}"):
            return None
        return device.ipid_counter.sample(address, now)
