"""Longitudinal resolution over a stream of snapshot deltas.

A :class:`LongitudinalEngine` owns one
:class:`~repro.core.engine.ObservationIndex` across the whole measurement
campaign.  The stream (:mod:`repro.stream.engine`) stages every synced
scan's observation delta on the index (:meth:`LongitudinalEngine.stage`:
removals are exact inverses of additions, per-address reference counts
make that safe).  A replay extracts the identifier of each added and each
removed observation once, so a poll's work depends only on its delta, not
on what the process saw before.

Every emit derives the report from the live index
(:meth:`LongitudinalEngine.derive`) with
:meth:`~repro.core.engine.ResolutionEngine.report`, the same derivation a
batch resolve and a checkpoint resume run, so an emitted report equals a
from-scratch :meth:`~repro.core.engine.ResolutionEngine.resolve` of the
snapshot (:func:`~repro.core.engine.report_signature` equality, which the
longitudinal tests assert on every snapshot).  The result is the full
:class:`~repro.core.engine.AliasReport` plus per-family
:class:`~repro.longitudinal.delta.AliasDelta` objects describing how the
non-singleton union sets evolved since the previous derive.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro import obs
from repro.core.aliasset import AliasSet
from repro.core.engine import AliasReport, ObservationIndex, ResolutionEngine
from repro.core.identifiers import DEFAULT_OPTIONS, IdentifierOptions
from repro.longitudinal.delta import AliasDelta, diff_alias_sets
from repro.sources.records import Observation


@dataclasses.dataclass(frozen=True)
class IncrementalResolution:
    """Output of one longitudinal step.

    Attributes:
        report: the full alias report of the new snapshot.
        ipv4_delta: evolution of the non-singleton IPv4 union sets.
        ipv6_delta: evolution of the non-singleton IPv6 union sets.
    """

    report: AliasReport
    ipv4_delta: AliasDelta
    ipv6_delta: AliasDelta


class LongitudinalEngine:
    """Maintains an alias-resolution report across churning snapshots."""

    def __init__(self, options: IdentifierOptions = DEFAULT_OPTIONS) -> None:
        self._options = options
        self._index = ObservationIndex(options)
        self._resolver = ResolutionEngine(options)
        self._previous: AliasReport | None = None
        # Non-singleton union sets of the previous derive, kept as plain
        # lists: ``AliasSetCollection.non_singleton()`` builds a new
        # collection, ASN mapping included, on every call.
        self._previous_ipv4: list[AliasSet] = []
        self._previous_ipv6: list[AliasSet] = []

    @property
    def options(self) -> IdentifierOptions:
        """The identifier construction options in use."""
        return self._options

    @property
    def index(self) -> ObservationIndex:
        """The live observation index (shared across snapshots)."""
        return self._index

    @property
    def report(self) -> AliasReport | None:
        """The most recent snapshot's report, if any."""
        return self._previous

    @classmethod
    def restore(cls, index: ObservationIndex, name: str) -> "LongitudinalEngine":
        """Rebuild an engine around a restored index (checkpoint resume).

        Derives the report called ``name`` from ``index``, exactly as the
        original engine held it after resolving that snapshot.  The engine
        holds nothing else, so the next :meth:`stage` and :meth:`derive`
        continue from ``name`` as if the process had never exited, with
        the same work.
        """
        engine = cls(index.options)
        engine._index = index
        engine.derive(name)
        return engine

    def stage(
        self,
        removed: Sequence[Observation],
        added: Sequence[Observation],
    ) -> None:
        """Replay an observation delta against the index without deriving.

        The streaming engine stages each synced scan's delta and pays for
        collection derivation when it emits (:meth:`derive`).  Removals
        replay before additions so an identifier whose membership merely
        rotates passes through a consistent intermediate state.  A removed
        observation is the object the index took, so extracting its
        identifier again finds exactly what was indexed.  With obs enabled,
        ``index.delta.removed``/``index.delta.added`` count the replayed
        observations and the ``index.symbols.interned`` gauges are set, as
        a bulk build sets them.
        """
        index = self._index
        for observation in removed:
            index.remove(observation)
        for observation in added:
            index.add(observation)
        if obs.is_enabled():
            obs.add("index.delta.removed", len(removed))
            obs.add("index.delta.added", len(added))
            index.publish_gauges()

    def derive(self, name: str) -> IncrementalResolution:
        """Derive the report of the live index, labelled ``name``.

        The report is :meth:`~repro.core.engine.ResolutionEngine.report`
        over the live index; the deltas compare its non-singleton union
        sets with the previous derive's.
        """
        report = self._resolver.report(self._index, name)
        current_ipv4 = [s for s in report.ipv4_union if not s.is_singleton]
        current_ipv6 = [s for s in report.ipv6_union if not s.is_singleton]
        ipv4_delta = diff_alias_sets(self._previous_ipv4, current_ipv4, name=f"{name}:ipv4")
        ipv6_delta = diff_alias_sets(self._previous_ipv6, current_ipv6, name=f"{name}:ipv6")
        self._previous = report
        self._previous_ipv4 = current_ipv4
        self._previous_ipv6 = current_ipv6
        return IncrementalResolution(
            report=report, ipv4_delta=ipv4_delta, ipv6_delta=ipv6_delta
        )
