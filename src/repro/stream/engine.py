"""Streaming resolution over a sequence of full scans.

A :class:`StreamingEngine` stays resident and takes one full scan at a
time — the shape every longitudinal loop polls (``repro longitudinal``,
``repro serve``; :mod:`repro.stream.daemon`).  :meth:`StreamingEngine.sync`
diffs the scan against the previous one (content-keyed and
multiset-exact: :func:`~repro.longitudinal.delta.diff_observations`) and
stages the delta on the live :class:`~repro.core.engine.ObservationIndex`
through :meth:`~repro.longitudinal.engine.LongitudinalEngine.stage`,
without deriving.  :meth:`StreamingEngine.flush` then emits.

An emit derives the full report from the live index
(:meth:`~repro.longitudinal.engine.LongitudinalEngine.derive`, which runs
:meth:`~repro.core.engine.ResolutionEngine.report`), classifies how the
union sets evolved since the previous emit as typed change events
(:mod:`repro.stream.events`), counts them by kind and mirrors them to
:mod:`repro.obs`, folds the window into the online churn-rate estimator
(:mod:`repro.stream.estimator`), and returns everything as a
:class:`StreamUpdate` labelled ``snapshot-<emit>``, the campaign's
snapshot labels.  The update is where the events arrive: the CLI, the
campaign log and the examples read ``update.events``.

Every emitted report equals a from-scratch
:meth:`~repro.core.engine.ResolutionEngine.resolve` of the last synced
scan (:func:`~repro.core.engine.report_signature` equality) —
``tests/stream/test_stream_engine.py`` asserts it emit for emit.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

from repro import obs
from repro.core.engine import AliasReport
from repro.core.identifiers import DEFAULT_OPTIONS, IdentifierOptions
from repro.errors import DatasetError
from repro.longitudinal.delta import diff_observations
from repro.longitudinal.engine import IncrementalResolution, LongitudinalEngine
from repro.sources.records import Observation

from repro.stream.estimator import ChurnRateEstimator
from repro.stream.events import (
    STREAM_COUNTER,
    STREAM_SERIES,
    CoverageChanged,
    ReportEmitted,
    StreamEvent,
    events_from_delta,
)


def emit_label(emit: int) -> str:
    """Label of the ``emit``-th report: the campaign's snapshot label."""
    return f"snapshot-{emit}"


@dataclasses.dataclass(frozen=True)
class StreamConfig:
    """Shape of a streaming engine.

    Attributes:
        churn_interval: simulated seconds the churn-rate estimate is
            expressed per (default one week, matching
            :class:`~repro.longitudinal.campaign.LongitudinalConfig`).
    """

    churn_interval: float = 7 * 86400.0


@dataclasses.dataclass(frozen=True)
class StreamUpdate:
    """Everything one emit produced.

    Attributes:
        emit: 0-based emit sequence number.
        name: label of the derived report (:func:`emit_label`).
        resolution: the derived resolution (report + family deltas).
        events: the typed change events of this emit, in order
            (:class:`~repro.stream.events.ReportEmitted` always last).
        churn_rate: the online churn-rate estimate after this emit
            (``None`` until the estimator has seen one window).
    """

    emit: int
    name: str
    resolution: IncrementalResolution
    events: tuple[StreamEvent, ...]
    churn_rate: float | None

    @property
    def report(self) -> AliasReport:
        """The emitted alias report."""
        return self.resolution.report


def _coverage(report: AliasReport) -> dict[str, int]:
    """Addresses each family's union sets cover."""
    return {
        "ipv4": sum(len(s.addresses) for s in report.ipv4_union),
        "ipv6": sum(len(s.addresses) for s in report.ipv6_union),
    }


class StreamingEngine:
    """Maintains a live alias report over a sequence of full scans."""

    def __init__(
        self,
        config: StreamConfig | None = None,
        options: IdentifierOptions = DEFAULT_OPTIONS,
        engine: LongitudinalEngine | None = None,
    ) -> None:
        self._config = config or StreamConfig()
        self._engine = engine or LongitudinalEngine(options)
        #: kind -> events emitted so far (a resume restores the checkpoint's).
        self._event_counts: dict[str, int] = {}
        self._estimator = ChurnRateEstimator(interval=self._config.churn_interval)
        #: The last synced scan: the content-keyed diff baseline.
        self._live: tuple[Observation, ...] = ()
        self._clock = 0.0
        self._emitted = 0
        # Window accounting since the last emit.
        self._pending_added = 0
        self._pending_removed = 0
        self._pending_removed_addresses: set[str] = set()
        self._tracked_at_emit = 0
        self._clock_at_emit: float | None = None
        self._coverage: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> StreamConfig:
        """The stream's configuration."""
        return self._config

    @property
    def engine(self) -> LongitudinalEngine:
        """The wrapped longitudinal engine (shared live index)."""
        return self._engine

    @property
    def estimator(self) -> ChurnRateEstimator:
        """The online churn-rate estimator."""
        return self._estimator

    @property
    def report(self) -> AliasReport | None:
        """The most recently emitted report, if any."""
        return self._engine.report

    @property
    def emitted(self) -> int:
        """Number of emits so far."""
        return self._emitted

    @property
    def clock(self) -> float:
        """Largest observation timestamp synced so far."""
        return self._clock

    @property
    def event_counts(self) -> dict[str, int]:
        """Events emitted so far by kind, in order of each kind's first emit."""
        return dict(self._event_counts)

    def live_observations(self) -> tuple[Observation, ...]:
        """The last synced scan (the stream's current world view)."""
        return self._live

    # ------------------------------------------------------------------ #
    # Ingest and emit
    # ------------------------------------------------------------------ #
    def sync(self, observations: Iterable[Observation]) -> None:
        """Stage a full scan as its delta against the previous scan.

        Services the scan no longer holds are removed, changed ones are
        replaced and new ones added; an identical re-scan stages nothing
        and only advances the clock.  Nothing derives until :meth:`flush`.
        """
        scan = tuple(observations)
        if scan:
            self._clock = max(self._clock, max(o.timestamp for o in scan))
        delta = diff_observations(self._live, scan)
        self._live = scan
        self._engine.stage(delta.removed, delta.added)
        self._pending_removed += len(delta.removed)
        self._pending_added += len(delta.added)
        self._pending_removed_addresses.update(o.address for o in delta.removed)

    def flush(self) -> StreamUpdate:
        """Derive and emit a report of everything synced so far.

        Raises:
            DatasetError: when no observation was ever synced.
        """
        if not (self._emitted or self._pending_added):
            raise DatasetError("cannot flush an empty stream: no observations synced")
        emit = self._emitted
        label = emit_label(emit)
        resolution = self._engine.derive(label)
        churn_rate = self._estimator.rate
        if emit:
            elapsed = self._clock - (self._clock_at_emit or 0.0)
            churn_rate = self._estimator.update(
                reassigned=len(self._pending_removed_addresses),
                tracked=self._tracked_at_emit,
                elapsed=elapsed,
            )
        events: list[StreamEvent] = []
        for family, delta in (
            ("ipv4", resolution.ipv4_delta),
            ("ipv6", resolution.ipv6_delta),
        ):
            events.extend(events_from_delta(delta, emit, label, family))
        coverage = _coverage(resolution.report)
        for family, current in coverage.items():
            previous = self._coverage.get(family)
            if previous is not None and previous != current:
                events.append(
                    CoverageChanged(
                        emit=emit,
                        name=label,
                        family=family,
                        previous=previous,
                        current=current,
                    )
                )
        events.append(
            ReportEmitted(
                emit=emit,
                name=label,
                time=self._clock,
                observations=self._engine.index.indexed,
                added=self._pending_added,
                removed=self._pending_removed,
                ipv4_sets=len(resolution.report.ipv4_union.non_singleton()),
                ipv6_sets=len(resolution.report.ipv6_union.non_singleton()),
                churn_rate=churn_rate,
            )
        )
        counts = self._event_counts
        for event in events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        if obs.is_enabled():
            for event in events:
                obs.add(STREAM_COUNTER, kind=event.kind)
                obs.metrics().append_series(STREAM_SERIES, event.to_fields())
            obs.add("stream.emits")
            obs.set_gauge("stream.clock", self._clock)
            for family, current in coverage.items():
                obs.set_gauge("stream.coverage", current, family=family)
        # Open the next window.
        self._emitted = emit + 1
        self._pending_added = 0
        self._pending_removed = 0
        self._pending_removed_addresses = set()
        self._tracked_at_emit = len({o.address for o in self._live})
        self._clock_at_emit = self._clock
        self._coverage = coverage
        return StreamUpdate(
            emit=emit,
            name=label,
            resolution=resolution,
            events=tuple(events),
            churn_rate=churn_rate,
        )

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #
    @classmethod
    def resume(
        cls,
        engine: LongitudinalEngine,
        observations: Iterable[Observation],
        emitted: int,
        clock: float,
        estimator: ChurnRateEstimator,
        event_counts: Mapping[str, int],
    ) -> "StreamingEngine":
        """Rebuild a streaming engine around a restored longitudinal engine.

        ``engine`` must already hold the checkpointed index and report
        (:meth:`~repro.longitudinal.engine.LongitudinalEngine.restore`);
        ``observations`` are the last synced scan at the checkpoint,
        ``emitted`` the number of emits so far, ``clock`` the clock at the
        last emit, ``estimator`` the churn-rate estimator, which the
        resumed engine takes ownership of, and ``event_counts`` the events
        emitted so far by kind (:mod:`repro.persist.stream` checkpoints
        all three).  The rest of the window is fixed by
        construction, because a checkpoint follows an emit: no window is
        in flight, the tracked addresses and the coverage come from the
        last scan and the restored report, and the estimator's interval is
        the stream's.
        """
        streaming = cls(config=StreamConfig(churn_interval=estimator.interval), engine=engine)
        streaming._live = tuple(observations)
        streaming._emitted = emitted
        streaming._clock = clock
        streaming._tracked_at_emit = len({o.address for o in streaming._live})
        streaming._clock_at_emit = clock
        streaming._coverage = _coverage(engine.report)
        streaming._estimator = estimator
        streaming._event_counts = dict(event_counts)
        return streaming
