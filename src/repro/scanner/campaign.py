"""Two-phase scan campaign orchestration.

A campaign reproduces the paper's measurement procedure for one vantage
point: a ZMap SYN scan of the target list on the service's port, followed by
a ZGrab2 application-layer grab of the responsive addresses.  SNMPv3 runs
over UDP and therefore has no separate liveness phase — the discovery probe
doubles as both.
"""

from __future__ import annotations

import dataclasses

from repro.scanner.blocklist import Blocklist
from repro.scanner.zgrab import ScanRecord, ZgrabScanner
from repro.scanner.zmap import SynScanResult, ZmapScanner
from repro.simnet.device import SERVICE_PORTS, ServiceType
from repro.simnet.network import SimulatedInternet, VantagePoint


@dataclasses.dataclass(frozen=True)
class ServiceScanResult:
    """Everything a campaign learned about one service from one vantage point.

    Attributes:
        service: the scanned service.
        vantage_name: name of the vantage point.
        syn_result: phase-1 result (``None`` for UDP services).
        records: phase-2 protocol scan records (only successful grabs).
        started_at: simulation time at which the campaign phase began.
        finished_at: simulation time at which the last grab completed.
    """

    service: ServiceType
    vantage_name: str
    syn_result: SynScanResult | None
    records: tuple[ScanRecord, ...]
    started_at: float
    finished_at: float

    @property
    def responsive_addresses(self) -> list[str]:
        """Addresses that produced a successful application-layer record."""
        return [record.address for record in self.records]

    @property
    def identified_addresses(self) -> list[str]:
        """Addresses whose record carries enough material for an identifier."""
        return [record.address for record in self.records if record.has_identifier]


class ScanCampaign:
    """Runs two-phase scans for any service from a single vantage point."""

    def __init__(
        self,
        network: SimulatedInternet,
        vantage: VantagePoint,
        syn_rate: float = 10_000.0,
        grab_rate: float = 2_000.0,
        seed: int = 0,
    ) -> None:
        self._network = network
        self._vantage = vantage
        self._blocklist = Blocklist()
        self._zmap = ZmapScanner(
            network, vantage, probes_per_second=syn_rate, blocklist=self._blocklist, seed=seed
        )
        self._zgrab = ZgrabScanner(network, vantage, grabs_per_second=grab_rate)

    def scan_service(
        self, service: ServiceType, targets: list[str], start_time: float = 0.0
    ) -> ServiceScanResult:
        """Scan ``targets`` for ``service`` and return the combined result."""
        if service is ServiceType.SNMPV3:
            allowed = self._blocklist.filter(targets)
            records = self._zgrab.grab(service, allowed, start_time=start_time)
            finished = start_time + self._zgrab.duration(len(allowed))
            return ServiceScanResult(
                service=service,
                vantage_name=self._vantage.name,
                syn_result=None,
                records=tuple(records),
                started_at=start_time,
                finished_at=finished,
            )
        port = SERVICE_PORTS[service]
        syn_result = self._zmap.scan(targets, port, start_time=start_time)
        grab_start = syn_result.finished_at
        records = self._zgrab.grab(service, list(syn_result.responsive), start_time=grab_start)
        finished = grab_start + self._zgrab.duration(len(syn_result.responsive))
        return ServiceScanResult(
            service=service,
            vantage_name=self._vantage.name,
            syn_result=syn_result,
            records=tuple(records),
            started_at=start_time,
            finished_at=finished,
        )
