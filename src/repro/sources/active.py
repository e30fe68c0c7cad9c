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
from repro.scanner.campaign import ScanCampaign
from repro.simnet.device import ServiceType
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.sources.records import Observation, ObservationDataset, observation_from_record

ACTIVE_SERVICES = (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3)

#: The paper's one active vantage point.
ACTIVE_VANTAGE = VantagePoint(name="active-de", address="192.0.2.250")

#: The active campaign's SYN and grab rates, per second.
ACTIVE_SYN_RATE = 50_000.0
ACTIVE_GRAB_RATE = 10_000.0

ACTIVE_SOURCE_NAME = "active"


class ActiveMeasurement:
    """Runs the paper's active measurement from a single vantage point."""

    def __init__(
        self,
        network: SimulatedInternet,
        vantage: VantagePoint = ACTIVE_VANTAGE,
        seed: int = 0,
    ) -> None:
        self._network = network
        self._campaign = ScanCampaign(
            network, vantage, syn_rate=ACTIVE_SYN_RATE, grab_rate=ACTIVE_GRAB_RATE, seed=seed
        )

    def run_ipv4(self, start_time: float = 0.0) -> ObservationDataset:
        """Scan every IPv4 address of the (simulated) Internet."""
        targets = sorted(self._network.all_addresses(AddressFamily.IPV4))
        return self._run(targets, start_time)

    def run_ipv6(self, hitlist: list[str], start_time: float = 0.0) -> ObservationDataset:
        """Scan the IPv6 hitlist."""
        return self._run(list(hitlist), start_time)

    def _run(self, targets: list[str], start_time: float) -> ObservationDataset:
        dataset = ObservationDataset(ACTIVE_SOURCE_NAME)
        current_time = start_time
        for service in ACTIVE_SERVICES:
            result = self._campaign.scan_service(service, targets, start_time=current_time)
            for record in result.records:
                dataset.add(self._to_observation(record, current_time))
            current_time = result.finished_at + 60.0
        return dataset

    def _to_observation(self, record, timestamp: float) -> Observation:
        return observation_from_record(
            record,
            source=ACTIVE_SOURCE_NAME,
            timestamp=timestamp,
            asn=self._network.asn_of(record.address),
        )
