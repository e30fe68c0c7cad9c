"""Normalised observation records.

Every data source — the active campaign and the Censys-like snapshot —
produces :class:`Observation` objects: one responsive (address, protocol,
port) with the protocol-specific identifier material flattened into string
fields.  The core inference layer consumes observations only, so it is
oblivious to where the data came from, exactly like the paper's analysis of
"active", "Censys" and "union" datasets.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Iterator

from repro.errors import DatasetError
from repro.net.addresses import AddressFamily, family_of
from repro.protocols.bgp.client import BgpScanRecord
from repro.protocols.snmp.client import SnmpScanRecord
from repro.protocols.ssh.client import SshScanRecord
from repro.simnet.device import SERVICE_PORTS, ServiceType

#: The largest AS number: they are four octets (RFC 6793), and the index
#: stores them in a signed 64-bit column.  The dataset loader and both
#: index cores refuse an observation whose ASN is not an integer (a boolean
#: is not one) in ``0..MAX_ASN``.
MAX_ASN = 2**32 - 1


@dataclasses.dataclass(frozen=True)
class Observation:
    """One responsive service observation.

    Attributes:
        address: probed address (canonical form).
        protocol: which service answered.
        source: data source label (``"active"``, ``"censys"`` …).
        port: transport port the service answered on.
        timestamp: simulation time of the observation.
        asn: AS that originates the address (resolved at collection time, as
            the paper does with routing data).
        fields: protocol-specific identifier material as sorted key/value
            pairs; empty when the service answered without revealing
            identifier material (e.g. a BGP speaker that closed immediately).
    """

    address: str
    protocol: ServiceType
    source: str
    port: int
    timestamp: float = 0.0
    asn: int | None = None
    fields: tuple[tuple[str, str], ...] = ()

    @property
    def family(self) -> AddressFamily:
        """Address family of the observed address."""
        return family_of(self.address)

    @property
    def has_identifier_material(self) -> bool:
        """Whether the observation carries identifier fields."""
        return bool(self.fields)

    def field(self, key: str, default: str | None = None) -> str | None:
        """Return one identifier field by name."""
        for field_key, value in self.fields:
            if field_key == key:
                return value
        return default

    def fields_dict(self) -> dict[str, str]:
        """Return the identifier fields as a dictionary."""
        return dict(self.fields)

    def is_standard_port(self) -> bool:
        """Whether the service answered on its default port."""
        return self.port == SERVICE_PORTS[self.protocol]


def _sorted_fields(fields: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(fields.items()))


def iter_observations(*datasets: Iterable[Observation]) -> Iterator[Observation]:
    """Stream the observations of several datasets, in order, without copying.

    A domain-named :func:`itertools.chain`: the single-pass resolution engine
    consumes observations exactly once, so callers combining datasets (e.g.
    active IPv4 + active IPv6) chain them lazily instead of concatenating
    ``list(...)`` copies.
    """
    return itertools.chain(*datasets)


def observation_from_record(
    record: SshScanRecord | BgpScanRecord | SnmpScanRecord,
    source: str,
    timestamp: float = 0.0,
    asn: int | None = None,
    port: int | None = None,
) -> Observation:
    """Convert a protocol scan record into a normalised observation."""
    if isinstance(record, SshScanRecord):
        fields: dict[str, str] = {}
        if record.banner is not None:
            fields["banner"] = record.banner
        if record.capability_signature is not None:
            fields["capability_signature"] = record.capability_signature
        if record.host_key_fingerprint is not None:
            fields["host_key_fingerprint"] = record.host_key_fingerprint
        if record.host_key_algorithm is not None:
            fields["host_key_algorithm"] = record.host_key_algorithm
        protocol = ServiceType.SSH
    elif isinstance(record, BgpScanRecord):
        fields = {}
        if record.open_message is not None:
            message = record.open_message
            fields = {
                "bgp_identifier": message.bgp_identifier,
                "asn": str(message.effective_asn),
                "hold_time": str(message.hold_time),
                "version": str(message.version),
                "message_length": str(message.message_length),
                "capabilities": ",".join(
                    f"{capability.code}:{capability.value.hex()}" for capability in message.capabilities
                ),
            }
        protocol = ServiceType.BGP
    elif isinstance(record, SnmpScanRecord):
        fields = {}
        if record.engine_id_hex is not None:
            fields = {
                "engine_id": record.engine_id_hex,
                "engine_boots": str(record.engine_boots if record.engine_boots is not None else 0),
            }
        protocol = ServiceType.SNMPV3
    else:  # pragma: no cover - defensive
        raise DatasetError(f"unsupported record type {type(record)!r}")
    return Observation(
        address=record.address,
        protocol=protocol,
        source=source,
        port=port if port is not None else record.port,
        timestamp=timestamp,
        asn=asn,
        fields=_sorted_fields(fields),
    )


class ObservationDataset:
    """A named collection of observations (one data source, one campaign)."""

    def __init__(self, name: str, observations: Iterable[Observation] = ()) -> None:
        self.name = name
        self._observations: list[Observation] = list(observations)

    def add(self, observation: Observation) -> None:
        """Append one observation."""
        self._observations.append(observation)

    def extend(self, observations: Iterable[Observation]) -> None:
        """Append many observations."""
        self._observations.extend(observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._observations)

    def __len__(self) -> int:
        return len(self._observations)

    def by_protocol(self, protocol: ServiceType) -> list[Observation]:
        """All observations for one protocol."""
        return [observation for observation in self._observations if observation.protocol is protocol]

    def addresses(
        self, protocol: ServiceType | None = None, family: AddressFamily | None = None
    ) -> set[str]:
        """Distinct addresses, optionally restricted by protocol and family."""
        selected = set()
        for observation in self._observations:
            if protocol is not None and observation.protocol is not protocol:
                continue
            if family is not None and observation.family is not family:
                continue
            selected.add(observation.address)
        return selected

    def asns(
        self, protocol: ServiceType | None = None, family: AddressFamily | None = None
    ) -> set[int]:
        """Distinct origin ASNs, optionally restricted by protocol and family."""
        selected = set()
        for observation in self._observations:
            if protocol is not None and observation.protocol is not protocol:
                continue
            if family is not None and observation.family is not family:
                continue
            if observation.asn is not None:
                selected.add(observation.asn)
        return selected

    def protocols(self) -> set[ServiceType]:
        """Protocols present in this dataset."""
        return {observation.protocol for observation in self._observations}

    def filter(self, predicate) -> "ObservationDataset":
        """Return a new dataset with observations matching ``predicate``."""
        return ObservationDataset(self.name, [obs for obs in self._observations if predicate(obs)])
