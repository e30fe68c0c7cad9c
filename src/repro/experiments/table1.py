"""Table 1 — Service scanning dataset overview.

For every protocol and data source the paper reports how many IPs responded
and how many ASes those IPs originate from, for IPv4 (active, Censys, union)
and IPv6 (active only).  "Responded" means the scan obtained the material
the technique consumes: a banner for SSH, an OPEN message for BGP, and an
engine-discovery REPORT for SNMPv3.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.tables import format_count, render_table
from repro.api.experiments import experiment
from repro.api.session import ReproSession
from repro.net.addresses import AddressFamily
from repro.simnet.device import ServiceType
from repro.sources.records import ObservationDataset

_PROTOCOL_LABELS = {ServiceType.SSH: "SSH", ServiceType.BGP: "BGP", ServiceType.SNMPV3: "SNMPv3"}


@dataclasses.dataclass(frozen=True)
class Table1Row:
    """One row: protocol coverage for a given address family."""

    protocol: str
    family: str
    active_ips: int
    active_asns: int
    censys_ips: int | None
    censys_asns: int | None
    union_ips: int | None
    union_asns: int | None


@dataclasses.dataclass
class Table1Result:
    """All rows of Table 1."""

    rows: list[Table1Row]

    def row(self, protocol: str, family: str = "ipv4") -> Table1Row:
        """Convenience accessor used by tests and the headline claims."""
        for candidate in self.rows:
            if candidate.protocol == protocol and candidate.family == family:
                return candidate
        raise KeyError(f"no row for {protocol}/{family}")


def _counted(dataset: ObservationDataset, protocol: ServiceType, family: AddressFamily) -> tuple[int, int]:
    relevant = [
        observation
        for observation in dataset
        if observation.protocol is protocol
        and observation.family is family
        and observation.is_standard_port()
        and (protocol is not ServiceType.BGP or observation.has_identifier_material)
    ]
    addresses = {observation.address for observation in relevant}
    asns = {observation.asn for observation in relevant if observation.asn is not None}
    return len(addresses), len(asns)


def _union_counts(datasets: list[ObservationDataset], protocol: ServiceType, family: AddressFamily) -> tuple[int, int]:
    addresses: set[str] = set()
    asns: set[int] = set()
    for dataset in datasets:
        for observation in dataset:
            if observation.protocol is not protocol or observation.family is not family:
                continue
            if not observation.is_standard_port():
                continue
            if protocol is ServiceType.BGP and not observation.has_identifier_material:
                continue
            addresses.add(observation.address)
            if observation.asn is not None:
                asns.add(observation.asn)
    return len(addresses), len(asns)


@experiment("table1", description="Table 1 — service scanning dataset overview")
def build(session: ReproSession) -> Table1Result:
    """Build Table 1 from the scenario's datasets."""
    rows: list[Table1Row] = []
    active4, censys4 = session.dataset("active-ipv4"), session.dataset("censys")
    for protocol in (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3):
        active_ips, active_asns = _counted(active4, protocol, AddressFamily.IPV4)
        if protocol is ServiceType.SNMPV3:
            censys_ips = censys_asns = union_ips = union_asns = None
        else:
            censys_ips, censys_asns = _counted(censys4, protocol, AddressFamily.IPV4)
            union_ips, union_asns = _union_counts([active4, censys4], protocol, AddressFamily.IPV4)
        rows.append(
            Table1Row(
                protocol=_PROTOCOL_LABELS[protocol],
                family="ipv4",
                active_ips=active_ips,
                active_asns=active_asns,
                censys_ips=censys_ips,
                censys_asns=censys_asns,
                union_ips=union_ips if union_ips is not None else active_ips,
                union_asns=union_asns if union_asns is not None else active_asns,
            )
        )
    active6 = session.dataset("active-ipv6")
    for protocol in (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3):
        active_ips, active_asns = _counted(active6, protocol, AddressFamily.IPV6)
        rows.append(
            Table1Row(
                protocol=f"{_PROTOCOL_LABELS[protocol]} (IPv6)",
                family="ipv6",
                active_ips=active_ips,
                active_asns=active_asns,
                censys_ips=None,
                censys_asns=None,
                union_ips=None,
                union_asns=None,
            )
        )
    return Table1Result(rows=rows)


def render(result: Table1Result) -> str:
    """Render Table 1 as text."""
    def fmt(value: int | None) -> str:
        return "n.a." if value is None else format_count(value)

    rows = [
        [
            row.protocol,
            fmt(row.active_ips),
            fmt(row.active_asns),
            fmt(row.censys_ips),
            fmt(row.censys_asns),
            fmt(row.union_ips),
            fmt(row.union_asns),
        ]
        for row in result.rows
    ]
    return render_table(
        ["Protocol", "Active IPs", "Active ASNs", "Censys IPs", "Censys ASNs", "Union IPs", "Union ASNs"],
        rows,
        title="Table 1: Service Scanning Dataset Overview",
    )
