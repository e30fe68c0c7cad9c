"""Typed change events of the streaming resolution service.

Every emit classifies how alias sets evolved as per-family
:class:`~repro.longitudinal.delta.AliasDelta` tables; the streaming
service turns that classification into *events*: an alias set was born,
dissolved, grew, shrank or migrated, the covered address count moved, a
report was emitted.  Every event is a frozen dataclass with a stable
``kind`` tag and a flat :meth:`StreamEvent.to_fields` rendering, so the
same object feeds two surfaces at once:

* each emit's :class:`~repro.stream.engine.StreamUpdate` carries its
  events in order (``update.events``), and
* the :class:`~repro.obs.registry.MetricsRegistry` receives a
  ``stream.events{kind=...}`` counter tick plus a row in the
  ``stream.events`` series — so ``--metrics FILE`` captures the whole
  stream for free.

Mirroring is gated on :func:`repro.obs.is_enabled` like every other obs
seam: a daemon run without ``--metrics`` pays one boolean check per
emit.
"""

from __future__ import annotations

import dataclasses

from repro.longitudinal.delta import AliasDelta

#: Name of the registry series stream events are mirrored into.
STREAM_SERIES = "stream.events"

#: Counter ticked (with a ``kind`` label) for every emitted event.
STREAM_COUNTER = "stream.events"


@dataclasses.dataclass(frozen=True)
class StreamEvent:
    """Base of every stream event.

    Attributes:
        emit: 0-based sequence number of the emit that produced the event.
        name: label of the emitted report (e.g. ``snapshot-3``).
    """

    emit: int
    name: str

    #: Stable machine tag of the event class (overridden by subclasses).
    kind = "event"

    def to_fields(self) -> dict:
        """Flat, JSON-serialisable rendering (``kind`` first, sorted data).

        Address frozensets become sorted lists so two identical events
        always render identically.
        """
        fields: dict = {"kind": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, frozenset):
                value = sorted(value)
            fields[field.name] = value
        return fields


@dataclasses.dataclass(frozen=True)
class AliasSetEvent(StreamEvent):
    """One alias set changed between consecutive emits.

    Attributes:
        family: address family tag (``"ipv4"`` / ``"ipv6"``).
        addresses: membership of the set the event describes — the
            current set for born/grown/shrunk/migrated, the previous set
            for dissolved (it no longer exists on the current side).
    """

    family: str
    addresses: frozenset[str]


class AliasSetBorn(AliasSetEvent):
    """A set sharing no address with any previous set appeared."""

    kind = "alias_set.born"


class AliasSetDissolved(AliasSetEvent):
    """A previous set shares no address with any current set."""

    kind = "alias_set.dissolved"


class AliasSetGrown(AliasSetEvent):
    """A set gained addresses (or merged previous sets) without losing any."""

    kind = "alias_set.grown"


class AliasSetShrunk(AliasSetEvent):
    """A set lost addresses without gaining any."""

    kind = "alias_set.shrunk"


class AliasSetMigrated(AliasSetEvent):
    """A set both gained and lost addresses — the paper's churn mechanism."""

    kind = "alias_set.migrated"


@dataclasses.dataclass(frozen=True)
class CoverageChanged(StreamEvent):
    """The number of addresses covered by a family's union moved.

    Attributes:
        family: address family tag (``"ipv4"`` / ``"ipv6"``).
        previous: covered address count at the previous emit.
        current: covered address count at this emit.
    """

    family: str
    previous: int
    current: int

    kind = "coverage.changed"


@dataclasses.dataclass(frozen=True)
class ReportEmitted(StreamEvent):
    """One live report was derived (always the last event of an emit).

    Attributes:
        time: simulated clock of the emit (max observation timestamp seen).
        observations: live observations in the index at the emit.
        added: observations applied (added) since the previous emit.
        removed: observations applied (removed) since the previous emit.
        ipv4_sets: non-singleton IPv4 union sets in the emitted report.
        ipv6_sets: non-singleton IPv6 union sets in the emitted report.
        churn_rate: online churn-rate estimate (per estimator interval),
            ``None`` until the estimator has seen at least one window.
    """

    time: float
    observations: int
    added: int
    removed: int
    ipv4_sets: int
    ipv6_sets: int
    churn_rate: float | None

    kind = "report.emitted"


#: AliasDelta attribute -> event class, in emit order.
_DELTA_EVENTS: tuple[tuple[str, type[AliasSetEvent]], ...] = (
    ("born", AliasSetBorn),
    ("dissolved", AliasSetDissolved),
    ("grown", AliasSetGrown),
    ("shrunk", AliasSetShrunk),
    ("migrated", AliasSetMigrated),
)


def events_from_delta(
    delta: AliasDelta, emit: int, name: str, family: str
) -> list[AliasSetEvent]:
    """Typed events for every set change an :class:`AliasDelta` classified.

    Events are ordered by category (born, dissolved, grown, shrunk,
    migrated) and by sorted membership within a category, so the event
    stream of a deterministic campaign is itself deterministic.
    """
    events: list[AliasSetEvent] = []
    for attribute, event_class in _DELTA_EVENTS:
        for addresses in sorted(getattr(delta, attribute), key=sorted):
            events.append(
                event_class(emit=emit, name=name, family=family, addresses=addresses)
            )
    return events
