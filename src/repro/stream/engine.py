"""Streaming resolution over an unbounded observation event stream.

Where the batch :class:`~repro.longitudinal.campaign.LongitudinalCampaign`
replays fixed snapshot boundaries, a :class:`StreamingEngine` has none:
observations arrive one at a time (:meth:`StreamingEngine.observe`), as
service retirements (:meth:`StreamingEngine.retire`), or as full-scan
reconciliations (:meth:`StreamingEngine.sync`), and the engine keeps the
live :class:`~repro.core.engine.ObservationIndex` current through the
same content-keyed delta machinery the campaign uses — one
:meth:`~repro.longitudinal.engine.LongitudinalEngine.stage` per
micro-batch, no derivation.

Derivation happens at *emits*.  An emit derives the full report
incrementally, classifies how the union sets evolved since the previous
emit, publishes the typed change events (:mod:`repro.stream.events`),
folds the window into the online churn-rate estimator
(:mod:`repro.stream.estimator`), and returns everything as a
:class:`StreamUpdate`.  Three triggers can cause one:

* **change count** — ``emit_every_changes=N`` emits once at least N
  observation changes (adds + removals) have been applied.  Checked
  after each ingest call; a micro-batch stages atomically.
* **simulated time** — ``emit_every_seconds=T`` emits at aligned
  simulated-clock boundaries ``epoch + k*T`` (epoch = timestamp of the
  first staged observation).  Checked *before* staging, so the emitted
  report contains exactly the observations that arrived before the
  boundary — feeding a campaign's snapshots through a stream with
  ``T = interval`` reproduces the campaign's reports label for label.
* **explicit** — :meth:`StreamingEngine.flush` emits now.

Every ingest method returns the tuple of :class:`StreamUpdate` objects
its triggers produced (usually empty or one).

The equivalence contract with the batch campaign is exact: syncing each
snapshot's observations and flushing yields, emit for emit, the same
:func:`~repro.core.engine.report_signature` and the same
born/dissolved/grown/shrunk/migrated counts as ``bootstrap``/``apply``
over the campaign's deltas — ``tests/stream/test_stream_engine.py``
asserts both.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro import obs
from repro.core.engine import AliasReport
from repro.core.identifiers import DEFAULT_OPTIONS, IdentifierOptions
from repro.errors import DatasetError, SimulationError
from repro.longitudinal.delta import diff_observations, observation_key
from repro.longitudinal.engine import IncrementalResolution, LongitudinalEngine
from repro.simnet.device import ServiceType
from repro.sources.records import Observation

from repro.stream.estimator import ChurnRateEstimator
from repro.stream.events import (
    CoverageChanged,
    ReportEmitted,
    StreamEvent,
    StreamPublisher,
    events_from_delta,
)

#: Service key under which live observations are tracked: one logical
#: service per (address, protocol value) pair.
_ServiceKey = tuple[str, str]


@dataclasses.dataclass(frozen=True)
class StreamConfig:
    """Shape of a streaming engine.

    Attributes:
        emit_every_changes: emit once this many observation changes have
            been applied since the last emit (``None`` disables).
        emit_every_seconds: emit at aligned simulated-clock boundaries
            this many seconds apart (``None`` disables).
        name_format: label pattern of emitted reports; ``{}`` receives
            the 0-based emit number.  The default matches the batch
            campaign's snapshot labels, so stream-vs-batch parity is an
            exact report-signature equality.
        churn_interval: simulated seconds the churn-rate estimate is
            expressed per (default one week, matching
            :class:`~repro.longitudinal.campaign.LongitudinalConfig`).
        estimator_window: EWMA smoothing horizon of the estimator.
    """

    emit_every_changes: int | None = None
    emit_every_seconds: float | None = None
    name_format: str = "snapshot-{}"
    churn_interval: float = 7 * 86400.0
    estimator_window: int = 8

    def __post_init__(self) -> None:
        if self.emit_every_changes is not None and self.emit_every_changes < 1:
            raise SimulationError("emit_every_changes must be at least 1")
        if self.emit_every_seconds is not None and self.emit_every_seconds <= 0:
            raise SimulationError("emit_every_seconds must be positive")
        if "{" not in self.name_format:
            raise SimulationError("name_format needs a {} placeholder for the emit number")


@dataclasses.dataclass(frozen=True)
class StreamUpdate:
    """Everything one emit produced.

    Attributes:
        emit: 0-based emit sequence number.
        name: label of the derived report.
        resolution: the incremental resolution (report + family deltas).
        events: the typed change events published for this emit, in
            publication order (:class:`~repro.stream.events.ReportEmitted`
            always last).
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


@dataclasses.dataclass(frozen=True)
class EmitWindow:
    """The emit-window state a stream checkpoint carries.

    :meth:`StreamingEngine.window_state` renders it for the manifest, the
    stream checkpoint loader parses it back (:mod:`repro.persist.stream`),
    and :meth:`StreamingEngine.resume` continues from it.  The resumed
    engine takes ownership of ``estimator``.
    """

    emitted: int
    clock: float
    epoch: float | None
    next_emit_clock: float | None
    tracked_at_emit: int
    clock_at_emit: float | None
    coverage: dict[str, int]
    estimator: ChurnRateEstimator


class StreamingEngine:
    """Maintains a live alias report over a boundary-less event stream."""

    def __init__(
        self,
        config: StreamConfig | None = None,
        options: IdentifierOptions = DEFAULT_OPTIONS,
        publisher: StreamPublisher | None = None,
        engine: LongitudinalEngine | None = None,
    ) -> None:
        self._config = config or StreamConfig()
        self._engine = engine or LongitudinalEngine(options)
        self._publisher = publisher or StreamPublisher()
        self._estimator = ChurnRateEstimator(
            interval=self._config.churn_interval,
            window=self._config.estimator_window,
        )
        #: live observations per service (the content-keyed diff baseline).
        self._services: dict[_ServiceKey, tuple[Observation, ...]] = {}
        self._clock = 0.0
        self._epoch: float | None = None
        self._next_emit_clock: float | None = None
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
        """The emit-trigger configuration."""
        return self._config

    @property
    def engine(self) -> LongitudinalEngine:
        """The wrapped incremental engine (shared live index)."""
        return self._engine

    @property
    def publisher(self) -> StreamPublisher:
        """The event publisher watchers subscribe through."""
        return self._publisher

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
        """Largest observation timestamp ingested so far."""
        return self._clock

    @property
    def pending_changes(self) -> int:
        """Observation changes applied since the last emit."""
        return self._pending_added + self._pending_removed

    @property
    def tracked_services(self) -> int:
        """Live (address, protocol) services currently tracked."""
        return len(self._services)

    def subscribe(self, watcher, kinds=None):
        """Shorthand for ``publisher.subscribe`` (returns unsubscribe)."""
        return self._publisher.subscribe(watcher, kinds)

    def live_observations(self) -> list[Observation]:
        """The tracked observations (the stream's current world view)."""
        return [
            observation
            for copies in self._services.values()
            for observation in copies
        ]

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def observe(self, observation: Observation) -> tuple[StreamUpdate, ...]:
        """Ingest one observation (upsert of its service).

        A service is the (address, protocol) pair: a changed identity
        replaces the service's previous observations, an identical
        re-observation only advances the clock, a new service is added.
        """
        return self.observe_batch((observation,))

    def observe_batch(
        self, observations: Iterable[Observation]
    ) -> tuple[StreamUpdate, ...]:
        """Ingest a micro-batch of observation upserts atomically.

        The time trigger is checked against the batch's earliest
        timestamp before staging; the change trigger once after.
        """
        batch = list(observations)
        if not batch:
            return ()
        updates = self._check_time_trigger(min(o.timestamp for o in batch))
        removed: list[Observation] = []
        added: list[Observation] = []
        for observation in batch:
            key = (observation.address, observation.protocol.value)
            existing = self._services.get(key, ())
            self._clock = max(self._clock, observation.timestamp)
            if len(existing) == 1 and observation_key(existing[0]) == observation_key(
                observation
            ):
                # Identical re-observation: refresh the stored copy (the
                # latest sighting) without touching the index.
                self._services[key] = (observation,)
                continue
            removed.extend(existing)
            added.append(observation)
            self._services[key] = (observation,)
        self._stage(removed, added)
        return updates + self._check_change_trigger()

    def retire(
        self, address: str, protocol: ServiceType
    ) -> tuple[StreamUpdate, ...]:
        """Remove a service that stopped answering.

        Unknown services are a no-op — a retirement may race an upsert in
        a live feed, and retiring twice must be safe.
        """
        key = (address, protocol.value)
        existing = self._services.pop(key, ())
        if not existing:
            return ()
        self._stage(list(existing), [])
        return self._check_change_trigger()

    def sync(self, observations: Iterable[Observation]) -> tuple[StreamUpdate, ...]:
        """Reconcile the stream against a full scan.

        Diffs the scan against every tracked service (content-keyed,
        multiset-exact — :func:`~repro.longitudinal.delta.diff_observations`),
        stages the delta, and replaces the tracked world view.  Services
        absent from the scan are retired; this is the poll path of the
        daemon.
        """
        batch = list(observations)
        updates: tuple[StreamUpdate, ...] = ()
        if batch:
            updates = self._check_time_trigger(min(o.timestamp for o in batch))
            self._clock = max(self._clock, max(o.timestamp for o in batch))
        delta = diff_observations(self.live_observations(), batch)
        self._stage(delta.removed, delta.added)
        services: dict[_ServiceKey, list[Observation]] = {}
        for observation in batch:
            services.setdefault(
                (observation.address, observation.protocol.value), []
            ).append(observation)
        self._services = {key: tuple(copies) for key, copies in services.items()}
        return updates + self._check_change_trigger()

    # ------------------------------------------------------------------ #
    # Emit
    # ------------------------------------------------------------------ #
    def flush(self, name: str | None = None) -> StreamUpdate:
        """Derive and publish a report of everything ingested so far.

        Raises:
            DatasetError: when nothing has ever been ingested.
        """
        if self._epoch is None:
            raise DatasetError("cannot flush an empty stream: no observations ingested")
        return self._emit(name)

    def _stage(
        self, removed: Iterable[Observation], added: Iterable[Observation]
    ) -> None:
        removed = list(removed)
        added = list(added)
        if not removed and not added:
            return
        self._engine.stage(removed, added)
        self._pending_removed += len(removed)
        self._pending_added += len(added)
        for observation in removed:
            self._pending_removed_addresses.add(observation.address)
        if self._epoch is None and added:
            self._epoch = min(o.timestamp for o in added)
            if self._config.emit_every_seconds is not None:
                self._next_emit_clock = self._epoch + self._config.emit_every_seconds

    def _check_time_trigger(self, incoming: float) -> tuple[StreamUpdate, ...]:
        """Emit staged state when ``incoming`` crosses the next boundary."""
        boundary = self._next_emit_clock
        if boundary is None or incoming < boundary:
            return ()
        interval = self._config.emit_every_seconds
        while incoming >= self._next_emit_clock:
            self._next_emit_clock += interval
        return (self._emit(None),)

    def _check_change_trigger(self) -> tuple[StreamUpdate, ...]:
        threshold = self._config.emit_every_changes
        if threshold is None or self.pending_changes < threshold:
            return ()
        return (self._emit(None),)

    def _emit(self, name: str | None) -> StreamUpdate:
        emit = self._emitted
        label = name if name is not None else self._config.name_format.format(emit)
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
        coverage = {
            "ipv4": sum(len(s.addresses) for s in resolution.report.ipv4_union),
            "ipv6": sum(len(s.addresses) for s in resolution.report.ipv6_union),
        }
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
        self._publisher.publish_all(events)
        if obs.is_enabled():
            obs.add("stream.emits")
            obs.set_gauge("stream.clock", self._clock)
            for family, current in coverage.items():
                obs.set_gauge("stream.coverage", current, family=family)
        # Open the next window.
        self._emitted = emit + 1
        self._pending_added = 0
        self._pending_removed = 0
        self._pending_removed_addresses = set()
        self._tracked_at_emit = len({key[0] for key in self._services})
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
    def window_state(self) -> dict:
        """JSON-serialisable emit-window state (no index, no services).

        The tracked observations are persisted separately
        (:mod:`repro.persist.stream`); this carries the small scalars a
        resumed engine needs to continue the same emit sequence and the
        same estimator series (an :class:`EmitWindow` once parsed).
        """
        return {
            "emitted": self._emitted,
            "clock": self._clock,
            "epoch": self._epoch,
            "next_emit_clock": self._next_emit_clock,
            "tracked_at_emit": self._tracked_at_emit,
            "clock_at_emit": self._clock_at_emit,
            "coverage": dict(self._coverage),
            "estimator": self._estimator.state(),
        }

    @classmethod
    def resume(
        cls,
        config: StreamConfig,
        engine: LongitudinalEngine,
        observations: Iterable[Observation],
        window: EmitWindow,
        options: IdentifierOptions = DEFAULT_OPTIONS,
        publisher: StreamPublisher | None = None,
    ) -> "StreamingEngine":
        """Rebuild a streaming engine around a restored incremental engine.

        ``engine`` must already hold the checkpointed index and report
        (:meth:`~repro.longitudinal.engine.LongitudinalEngine.restore`);
        ``observations`` are the tracked observations at the checkpoint,
        and ``window`` is the parsed :meth:`window_state`.  A window
        that was mid-accumulation at checkpoint time restarts empty — the
        checkpoint writer only runs at emit boundaries, so nothing is in
        flight by construction.
        """
        streaming = cls(config=config, options=options, publisher=publisher, engine=engine)
        services: dict[_ServiceKey, list[Observation]] = {}
        for observation in observations:
            services.setdefault(
                (observation.address, observation.protocol.value), []
            ).append(observation)
        streaming._services = {key: tuple(copies) for key, copies in services.items()}
        streaming._emitted = window.emitted
        streaming._clock = window.clock
        streaming._epoch = window.epoch
        streaming._next_emit_clock = window.next_emit_clock
        streaming._tracked_at_emit = window.tracked_at_emit
        streaming._clock_at_emit = window.clock_at_emit
        streaming._coverage = dict(window.coverage)
        streaming._estimator = window.estimator
        return streaming
