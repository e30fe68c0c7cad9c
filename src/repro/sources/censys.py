"""The Censys-like secondary data source.

Censys scans from many vantage points spread over several networks, which —
as the paper points out, citing Wan et al. — makes it far less likely to
trigger per-origin rate limiting or IDS filters, and therefore gives it a
larger view of SSH than a single vantage point.  At the same time a Censys
snapshot is taken on a different date (the paper uses a snapshot three weeks
older than its active scan) and misses a fraction of hosts for its own
operational reasons, so the union of both sources is larger than either.

The simulated source reproduces those properties:

* probes originate from *distributed* vantage points (no rate limiting),
* a per-address snapshot miss probability models operational gaps,
* the snapshot is taken at an earlier simulation time (pre-churn), and
* a fraction of SSH hosts is additionally reported on non-standard ports,
  which the analysis filters out exactly like the paper does.
* IPv6 coverage is negligible and on non-standard ports only, so the
  experiment drivers exclude it, mirroring the paper.
"""

from __future__ import annotations

import random

from repro.net.addresses import AddressFamily
from repro.scanner.campaign import ScanCampaign
from repro.simnet.device import ServiceType
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.sources.records import Observation, ObservationDataset, observation_from_record

CENSYS_SERVICES = (ServiceType.SSH, ServiceType.BGP)

#: Fraction of IPv4 addresses a snapshot misses for operational reasons.
CENSYS_MISS_RATE = 0.12
#: Fraction of IPv4 addresses sampled for SSH on a non-standard port.
CENSYS_NONSTANDARD_PORT_FRACTION = 0.18
#: Simulation time of the snapshot: the origin, three weeks before the
#: active scan (:data:`repro.api.sources.CENSYS_SNAPSHOT_LEAD`).
CENSYS_SNAPSHOT_TIME = 0.0

CENSYS_SOURCE_NAME = "censys"


class CensysSource:
    """Builds Censys-like snapshots of the simulated Internet."""

    def __init__(self, network: SimulatedInternet, seed: int = 1) -> None:
        self._network = network
        self._seed = seed
        self._vantage = VantagePoint(name="censys-fleet", address="198.51.100.50", distributed=True)
        self._campaign = ScanCampaign(network, self._vantage, seed=seed)

    def snapshot_ipv4(self) -> ObservationDataset:
        """Produce the IPv4 snapshot (SSH and BGP; Censys has no SNMPv3 data)."""
        rng = random.Random(self._seed)
        dataset = ObservationDataset(CENSYS_SOURCE_NAME)
        all_targets = sorted(self._network.all_addresses(AddressFamily.IPV4))
        targets = [address for address in all_targets if rng.random() >= CENSYS_MISS_RATE]
        current_time = CENSYS_SNAPSHOT_TIME
        for service in CENSYS_SERVICES:
            result = self._campaign.scan_service(service, targets, start_time=current_time)
            for record in result.records:
                dataset.add(
                    observation_from_record(
                        record,
                        source=CENSYS_SOURCE_NAME,
                        timestamp=current_time,
                        asn=self._network.asn_of(record.address),
                    )
                )
            current_time = result.finished_at + 60.0
        dataset.extend(self._nonstandard_port_records(rng))
        return dataset

    def snapshot_ipv6(self) -> ObservationDataset:
        """Produce the (nearly empty) IPv6 snapshot.

        Matching the paper's observation, the snapshot contains only a small
        number of SSH hosts answering on web ports (80/443), which the
        analysis excludes because it only considers the default ports.
        """
        rng = random.Random(self._seed + 1)
        dataset = ObservationDataset(CENSYS_SOURCE_NAME)
        campaign = ScanCampaign(self._network, self._vantage, seed=self._seed + 1)
        candidates = sorted(self._network.all_addresses(AddressFamily.IPV6))
        sampled = [address for address in candidates if rng.random() < 0.01]
        result = campaign.scan_service(ServiceType.SSH, sampled, start_time=CENSYS_SNAPSHOT_TIME)
        for record in result.records:
            dataset.add(
                observation_from_record(
                    record,
                    source=CENSYS_SOURCE_NAME,
                    timestamp=CENSYS_SNAPSHOT_TIME,
                    asn=self._network.asn_of(record.address),
                    port=rng.choice((80, 443)),
                )
            )
        return dataset

    def _nonstandard_port_records(self, rng: random.Random) -> list[Observation]:
        """SSH observations on non-default ports (filtered out by the analysis)."""
        campaign = ScanCampaign(self._network, self._vantage, seed=self._seed + 2)
        candidates = sorted(self._network.all_addresses(AddressFamily.IPV4))
        sampled = [address for address in candidates if rng.random() < CENSYS_NONSTANDARD_PORT_FRACTION]
        result = campaign.scan_service(ServiceType.SSH, sampled, start_time=CENSYS_SNAPSHOT_TIME)
        observations = []
        for record in result.records:
            observations.append(
                observation_from_record(
                    record,
                    source=CENSYS_SOURCE_NAME,
                    timestamp=CENSYS_SNAPSHOT_TIME,
                    asn=self._network.asn_of(record.address),
                    port=rng.choice((2222, 2022, 830, 10022)),
                )
            )
        return observations
