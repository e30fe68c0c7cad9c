"""The active measurement campaign (single vantage point).

Reproduces the paper's own data collection: from one vantage point, an
Internet-wide two-phase scan of the IPv4 space for SSH and BGP, an SNMPv3
discovery sweep, and a hitlist-based IPv6 scan of the same three services.
The single vantage point is subject to per-AS intrusion-detection rate
limiting in the simulated Internet, which is what ultimately separates this
dataset's coverage from the distributed Censys-like source.
"""

from __future__ import annotations

from repro.net.addresses import AddressFamily
from repro.scanner.blocklist import Blocklist
from repro.scanner.campaign import ScanCampaign
from repro.simnet.device import ServiceType
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.sources.records import Observation, ObservationDataset, observation_from_record

DEFAULT_SERVICES = (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3)

#: The paper's one active vantage point.
ACTIVE_VANTAGE = VantagePoint(name="active-de", address="192.0.2.250")


class ActiveMeasurement:
    """Runs the paper's active measurement from a single vantage point."""

    def __init__(
        self,
        network: SimulatedInternet,
        vantage: VantagePoint = ACTIVE_VANTAGE,
        blocklist: Blocklist | None = None,
        syn_rate: float = 50_000.0,
        grab_rate: float = 10_000.0,
        seed: int = 0,
        source_name: str = "active",
    ) -> None:
        self._network = network
        self._vantage = vantage
        self._campaign = ScanCampaign(
            network,
            self._vantage,
            blocklist=blocklist,
            syn_rate=syn_rate,
            grab_rate=grab_rate,
            seed=seed,
        )
        self._source_name = source_name

    @property
    def vantage(self) -> VantagePoint:
        """The vantage point used by this campaign."""
        return self._vantage

    def run_ipv4(
        self,
        services: tuple[ServiceType, ...] = DEFAULT_SERVICES,
        start_time: float = 0.0,
    ) -> ObservationDataset:
        """Scan every IPv4 address of the (simulated) Internet."""
        targets = sorted(self._network.all_addresses(AddressFamily.IPV4))
        return self._run(targets, services, start_time)

    def run_ipv6(
        self,
        hitlist: list[str],
        services: tuple[ServiceType, ...] = DEFAULT_SERVICES,
        start_time: float = 0.0,
    ) -> ObservationDataset:
        """Scan the IPv6 hitlist."""
        return self._run(list(hitlist), services, start_time)

    def _run(
        self, targets: list[str], services: tuple[ServiceType, ...], start_time: float
    ) -> ObservationDataset:
        dataset = ObservationDataset(self._source_name)
        current_time = start_time
        for service in services:
            result = self._campaign.scan_service(service, targets, start_time=current_time)
            for record in result.records:
                dataset.add(self._to_observation(record, current_time))
            current_time = result.finished_at + 60.0
        return dataset

    def _to_observation(self, record, timestamp: float) -> Observation:
        return observation_from_record(
            record,
            source=self._source_name,
            timestamp=timestamp,
            asn=self._network.asn_of(record.address),
        )
