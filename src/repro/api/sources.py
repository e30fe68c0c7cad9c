"""Declarative observation sources and the source registry.

A :class:`SourceSpec` names *what* data to collect (a kind plus parameters
and optional input specs); the **kind registry** maps each kind to a builder
that knows *how* to collect it from a session.  Compositions are specs all
the way down: the paper's "union" dataset is literally
``concat(union_of(active_ipv4, censys_raw), active_ipv6)``, and a user's
custom source slots into the same algebra by registering a new kind.

Two registries cooperate:

* :data:`SOURCE_KINDS` — kind → builder (``(session, spec) -> dataset``),
  the extension point for new collection mechanisms.
* :data:`SOURCES` — name → ready-made :class:`SourceSpec`, what the CLI's
  ``--sources`` flag and ``repro scan --list-sources`` enumerate.

Specs are frozen and hashable, so sessions cache datasets per spec: the
active IPv4 campaign referenced by both ``"active"`` and ``"union"`` runs
once per session.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Callable, Iterator

from repro.api.registry import Registry
from repro.errors import DatasetError
from repro.sources.active import ACTIVE_VANTAGE, ActiveMeasurement
from repro.sources.censys import CensysSource
from repro.sources.merge import filter_standard_ports, merge_datasets
from repro.sources.records import ObservationDataset, iter_observations

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.api.session import ReproSession

#: Simulated duration between the Censys snapshot and the active scan
#: (the paper pairs an April 18 active scan with a March 28 snapshot).
CENSYS_SNAPSHOT_LEAD = 21 * 86400.0

#: Parameter values must be hashable so specs can key session caches.
ParamValue = str | int | float | bool


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    """A declarative description of one observation source.

    Attributes:
        kind: name of the builder in :data:`SOURCE_KINDS`.
        params: builder parameters as sorted key/value pairs (use
            :meth:`create` rather than spelling the tuple out).
        inputs: upstream specs for combinator kinds (union, concat, …).
        label: dataset name override for the built dataset.
    """

    kind: str
    params: tuple[tuple[str, ParamValue], ...] = ()
    inputs: tuple["SourceSpec", ...] = ()
    label: str | None = None

    @classmethod
    def create(
        cls,
        kind: str,
        inputs: tuple["SourceSpec", ...] = (),
        label: str | None = None,
        **params: ParamValue,
    ) -> "SourceSpec":
        """Build a spec with normalised (sorted) parameters."""
        return cls(kind=kind, params=tuple(sorted(params.items())), inputs=inputs, label=label)

    def param(self, key: str, default: ParamValue | None = None) -> ParamValue | None:
        """Look up one parameter."""
        for param_key, value in self.params:
            if param_key == key:
                return value
        return default

    def describe(self) -> str:
        """Compact one-line rendering (for logs and error messages)."""
        parts = [self.kind]
        if self.params:
            parts.append("(" + ", ".join(f"{k}={v}" for k, v in self.params) + ")")
        if self.inputs:
            parts.append("[" + ", ".join(spec.describe() for spec in self.inputs) + "]")
        return "".join(parts)


#: A builder turns a spec into a dataset using a session's shared state
#: (network, hitlist, config) and the session's spec cache for its inputs.
SourceBuilder = Callable[["ReproSession", SourceSpec], ObservationDataset]

SOURCE_KINDS: Registry[SourceBuilder] = Registry("source kind")
SOURCES: Registry[SourceSpec] = Registry("source")


def source_kind(name: str, description: str = "") -> Callable[[SourceBuilder], SourceBuilder]:
    """Register a builder for a new source kind (decorator)."""
    return SOURCE_KINDS.register(name, description=description)


def register_source(name: str, spec: SourceSpec, description: str = "", replace: bool = False) -> SourceSpec:
    """Expose ``spec`` under ``name`` (CLI ``--sources``, ``session.dataset``)."""
    return SOURCES.add(name, spec, description=description, replace=replace)


def named_source(name: str) -> SourceSpec:
    """Resolve a registered source name to its spec."""
    return SOURCES.get(name)


def build_source(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    """Build one spec's dataset (inputs resolve through the session cache)."""
    return SOURCE_KINDS.get(spec.kind)(session, spec)


# --------------------------------------------------------------------------- #
# Combinator constructors
# --------------------------------------------------------------------------- #
def concat(*specs: SourceSpec, label: str | None = None) -> SourceSpec:
    """Stream several sources one after the other (no deduplication)."""
    return SourceSpec(kind="concat", inputs=tuple(specs), label=label)


def streamed_specs(spec: SourceSpec) -> Iterator[SourceSpec]:
    """The datasets a stream over ``spec`` reads, in order.

    A concat is pure sequencing: it streams its inputs back to back and
    reads no materialised dataset of its own.
    """
    if spec.kind == "concat":
        for input_spec in spec.inputs:
            yield from streamed_specs(input_spec)
    else:
        yield spec


def union_of(*specs: SourceSpec, label: str = "union") -> SourceSpec:
    """Merge several sources, keeping the best observation per (address, protocol).

    The paper's union semantics (:func:`repro.sources.merge.merge_datasets`):
    default ports only; identifier material wins, then recency.
    """
    return SourceSpec(kind="union", inputs=tuple(specs), label=label)


def standard_ports(spec: SourceSpec) -> SourceSpec:
    """Keep only default-port observations of ``spec``."""
    return SourceSpec(kind="standard-ports", inputs=(spec,))


def file_source(path: str | "os.PathLike[str]", label: str | None = None) -> SourceSpec:
    """A saved JSONL dataset as a declarative source.

    The file loads through :func:`repro.io.datasets.load_observations`, so
    the dataset name comes from the embedded header record (``label``
    overrides it).  File sources compose like any other spec — e.g.
    ``union_of(file_source("active.jsonl"), CENSYS_IPV4)`` merges an
    archived scan with a live snapshot.
    """
    return SourceSpec.create("file", label=label, path=os.fspath(path))


# --------------------------------------------------------------------------- #
# Built-in collection kinds
# --------------------------------------------------------------------------- #
def _without_params(spec: SourceSpec) -> None:
    """Refuse parameters on a built-in collection kind.

    The paper scans from one vantage point on one schedule, so the
    built-in kinds take none; a parameter a spec still carries would
    otherwise be ignored, and its dataset would silently be the default's.
    """
    if spec.params:
        names = ", ".join(key for key, _ in spec.params)
        raise DatasetError(f"source kind {spec.kind!r} takes no parameters (got {names})")


@source_kind("active-ipv4", "single-vantage Internet-wide IPv4 scan (SSH/BGP/SNMPv3)")
def _build_active_ipv4(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    _without_params(spec)
    # Each campaign starts from a clean IDS slate: probe budgets are keyed
    # per (vantage, AS, time window) on the shared network, so without the
    # reset this dataset would depend on whether the session first ran a
    # user-registered kind scanning from the same vantage in the same
    # window — breaking the cache's assumption that a dataset is a function
    # of (config, spec).  The two active scans fall in windows a day apart.
    session.network.reset_rate_limits()
    campaign = ActiveMeasurement(session.network, vantage=ACTIVE_VANTAGE, seed=session.config.seed)
    return campaign.run_ipv4(start_time=CENSYS_SNAPSHOT_LEAD)


@source_kind("active-ipv6", "single-vantage IPv6 scan over the hitlist (SSH/BGP/SNMPv3)")
def _build_active_ipv6(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    _without_params(spec)
    # The scenario schedules the IPv6 scan a day after the IPv4 scan with its
    # own seed.  The rate-limit reset mirrors active-ipv4 (campaign isolation).
    session.network.reset_rate_limits()
    campaign = ActiveMeasurement(session.network, vantage=ACTIVE_VANTAGE, seed=session.config.seed + 1)
    return campaign.run_ipv6(session.hitlist, start_time=CENSYS_SNAPSHOT_LEAD + 86400.0)


@source_kind("censys-ipv4", "distributed Censys-like IPv4 snapshot (SSH/BGP, three weeks earlier)")
def _build_censys_ipv4(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    _without_params(spec)
    return CensysSource(session.network, seed=session.config.seed + 2).snapshot_ipv4()


@source_kind("censys-ipv6", "Censys-like IPv6 snapshot (negligible, non-standard ports)")
def _build_censys_ipv6(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    _without_params(spec)
    return CensysSource(session.network, seed=session.config.seed + 3).snapshot_ipv6()


@source_kind("file", "load a saved observation dataset (JSONL) from disk")
def _build_file(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    # Imported here, not at module top: repro.io.datasets is pure
    # serialisation and only file specs pay for it.
    from repro.io.datasets import load_observations

    path = spec.param("path")
    if path is None:
        raise DatasetError("a file source needs a 'path' parameter")
    return load_observations(str(path), name=spec.label)


# --------------------------------------------------------------------------- #
# Built-in combinator kinds
# --------------------------------------------------------------------------- #
@source_kind("concat", "stream the input sources back to back")
def _build_concat(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    resolved = [session.dataset(input_spec) for input_spec in spec.inputs]
    name = spec.label or (resolved[0].name if resolved else "concat")
    return ObservationDataset(name, iter_observations(*resolved))


@source_kind("union", "merge the input sources (default ports; identifier material, then recency, wins)")
def _build_union(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    resolved = [session.dataset(input_spec) for input_spec in spec.inputs]
    return merge_datasets(*resolved, name=spec.label or "union")


@source_kind("standard-ports", "drop observations taken on non-default ports")
def _build_standard_ports(session: "ReproSession", spec: SourceSpec) -> ObservationDataset:
    (input_spec,) = spec.inputs
    return filter_standard_ports(session.dataset(input_spec))


# --------------------------------------------------------------------------- #
# Named sources: the paper's dataset compositions
# --------------------------------------------------------------------------- #
ACTIVE_IPV4 = SourceSpec(kind="active-ipv4")
ACTIVE_IPV6 = SourceSpec(kind="active-ipv6")
CENSYS_IPV4 = SourceSpec(kind="censys-ipv4")
CENSYS_IPV6 = SourceSpec(kind="censys-ipv6")

#: Both active campaigns as one stream (what ``repro scan`` writes).
ACTIVE = concat(ACTIVE_IPV4, ACTIVE_IPV6, label="active")
#: The analysis view of the Censys snapshot: default ports only.
CENSYS_STANDARD = standard_ports(CENSYS_IPV4)
#: The merged IPv4 view of both sources.
UNION_IPV4 = union_of(ACTIVE_IPV4, CENSYS_IPV4, label="union")
#: The paper's full union composition: merged IPv4 plus the active IPv6 scan
#: (Censys IPv6 is excluded, as in the paper).
UNION = concat(UNION_IPV4, ACTIVE_IPV6, label="union")

register_source("active", ACTIVE, "active measurement: IPv4 Internet-wide + IPv6 hitlist scan")
register_source("active-ipv4", ACTIVE_IPV4, "active measurement, IPv4 Internet-wide scan only")
register_source("active-ipv6", ACTIVE_IPV6, "active measurement, hitlist-based IPv6 scan only")
register_source("censys", CENSYS_IPV4, "Censys-like IPv4 snapshot (raw, including non-standard ports)")
register_source("censys-standard", CENSYS_STANDARD, "Censys-like IPv4 snapshot restricted to default ports")
register_source("censys-ipv6", CENSYS_IPV6, "Censys-like IPv6 snapshot (negligible coverage)")
register_source("union-ipv4", UNION_IPV4, "merged IPv4 view of the active and Censys sources")
register_source("union", UNION, "paper's union composition: merged IPv4 + active IPv6")

#: Stream compositions behind ``session.report(name)`` for the three source
#: labels the paper's evaluation uses.  "censys" resolves over the
#: default-port view while ``session.dataset("censys")`` stays raw, as the
#: paper's methodology restricts its Censys analysis to default ports.
REPORT_SPECS: dict[str, SourceSpec] = {
    "active": ACTIVE,
    "censys": CENSYS_STANDARD,
    "union": UNION,
}
