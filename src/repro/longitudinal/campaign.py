"""Multi-snapshot measurement campaigns over a churning simulated Internet.

The paper's MIDAR validation ran for three weeks, and the few-percent
disagreement with the SSH-derived sets is attributed to addresses that
moved between devices during that window.  This module makes that
mechanism measurable end to end.  A :class:`LongitudinalCampaign` is the
event source: :meth:`~LongitudinalCampaign.capture` injects sampled churn
for one interval (:meth:`~repro.simnet.churn.ChurnModel.sample`), scans,
and records which addresses churned.  The poll loop of
:class:`~repro.stream.daemon.StreamDaemon` resolves each capture by
replaying its delta on the live index — for ``repro longitudinal`` and
``repro serve`` alike — and
a :class:`CampaignLog` turns every poll's capture and update into
per-snapshot stability: how many alias sets persisted, split, migrated —
and how many of those disruptions are attributable to the injected churn.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import TYPE_CHECKING

from repro import obs
from repro.core.identifiers import DEFAULT_OPTIONS, IdentifierOptions
from repro.errors import SimulationError
from repro.net.addresses import AddressFamily
from repro.simnet.churn import ChurnModel
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.sources.active import ACTIVE_VANTAGE, ActiveMeasurement
from repro.sources.records import Observation

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.stream.engine import StreamUpdate


#: Simulation time of a campaign's first snapshot.
CAMPAIGN_START_TIME = 0.0


@dataclasses.dataclass(frozen=True)
class LongitudinalConfig:
    """Shape of a longitudinal campaign.

    Attributes:
        snapshots: number of measurement snapshots (>= 1).
        interval: simulated seconds between snapshots (default one week,
            so a four-snapshot campaign spans the paper's three weeks).
        churn_fraction: fraction of all addresses reassigned to a random
            device between consecutive snapshots (the paper-motivated
            range is a few percent per window).
        seed: drives churn sampling and the per-snapshot scans.

    The first snapshot scans at :data:`CAMPAIGN_START_TIME`, and each
    later one an interval after the previous.  ``snapshots`` and ``seed``
    must be integers, and ``interval`` and ``churn_fraction`` finite
    numbers (a boolean is neither), so a config read back from a
    checkpoint manifest is held to the rules a run's own config meets;
    each refusal names its field.
    """

    snapshots: int = 4
    interval: float = 7 * 86400.0
    churn_fraction: float = 0.02
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("snapshots", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SimulationError(f"{name} must be an integer, got {value!r}")
        for name in ("interval", "churn_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SimulationError(f"{name} must be a number, got {value!r}")
            try:
                float(value)  # the finiteness checks below convert it
            except OverflowError:
                raise SimulationError(f"{name} is too large for a float") from None
        if self.snapshots < 1:
            raise SimulationError(f"snapshots must be at least 1, got {self.snapshots}")
        if not 0.0 <= self.churn_fraction < 1.0:
            raise SimulationError("churn_fraction must be in [0, 1)")
        if not (self.interval > 0 and math.isfinite(self.interval)):
            raise SimulationError(
                f"interval must be positive and finite (got {self.interval})"
            )

    def time_of(self, snapshot: int) -> float:
        """Simulation time at which snapshot ``snapshot`` scans."""
        return CAMPAIGN_START_TIME + snapshot * self.interval


@dataclasses.dataclass(frozen=True)
class SnapshotCapture:
    """What one snapshot observed, before resolution.

    Attributes:
        index: snapshot number (0-based).
        time: simulation time the snapshot's scan started.
        observations: every observation of the snapshot.
        churned: addresses whose churn switch time falls inside the
            interval ending at this snapshot — the ground truth against
            which set disruptions are attributed.
    """

    index: int
    time: float
    observations: tuple[Observation, ...]
    churned: frozenset[str]

    @property
    def name(self) -> str:
        """Label under which this snapshot is resolved."""
        return f"snapshot-{self.index}"


@dataclasses.dataclass(frozen=True)
class SnapshotStability:
    """Stability of the non-singleton union sets at one snapshot."""

    snapshot: int
    time: float
    observations: int
    added: int
    removed: int
    sets: int
    born: int
    dissolved: int
    grown: int
    shrunk: int
    migrated: int
    persistence: float
    splits: int
    churn_attributed_splits: int
    disrupted: int
    churn_attributed_disruptions: int


def _churn_attributed(
    origins: tuple[frozenset[str], ...],
    changed_current: tuple[frozenset[str], ...],
    churned: frozenset[str],
) -> int:
    """How many ``origins`` are attributable to ``churned`` addresses.

    A previous set's disruption traces back to churn when the churned
    address appears on either side of the change: in the origin itself
    (the address left this set) or in a current set overlapping the origin
    (the address arrived and reshaped it).
    """
    if not churned:
        return 0
    owner: dict[str, int] = {}
    for index, addresses in enumerate(changed_current):
        for address in addresses:
            owner[address] = index
    churned_successors = {
        index for index, addresses in enumerate(changed_current) if addresses & churned
    }
    count = 0
    for origin in origins:
        if origin & churned:
            count += 1
            continue
        successors = {owner[address] for address in origin if address in owner}
        if successors & churned_successors:
            count += 1
    return count


def _snapshot_stability(
    capture: SnapshotCapture, update: "StreamUpdate", family: AddressFamily
) -> SnapshotStability:
    """Stability of one poll's non-singleton union sets for one family.

    The set evolution comes from the update's resolution, and the
    observation delta from its closing
    :class:`~repro.stream.events.ReportEmitted`.  The first snapshot has
    no predecessor and so no observation delta.
    """
    resolution = update.resolution
    if family is AddressFamily.IPV4:
        delta, union = resolution.ipv4_delta, resolution.report.ipv4_union
    else:
        delta, union = resolution.ipv6_delta, resolution.report.ipv6_union
    emitted = update.events[-1]
    churned = capture.churned
    changed_current = delta.born + delta.grown + delta.shrunk + delta.migrated
    return SnapshotStability(
        snapshot=capture.index,
        time=capture.time,
        observations=len(capture.observations),
        added=emitted.added if capture.index else 0,
        removed=emitted.removed if capture.index else 0,
        sets=len(union.non_singleton()),
        born=len(delta.born),
        dissolved=len(delta.dissolved),
        grown=len(delta.grown),
        shrunk=len(delta.shrunk),
        migrated=len(delta.migrated),
        persistence=delta.persistence,
        splits=len(delta.split_origins),
        churn_attributed_splits=_churn_attributed(
            delta.split_origins, changed_current, churned
        ),
        disrupted=len(delta.disrupted_previous),
        churn_attributed_disruptions=_churn_attributed(
            delta.disrupted_previous, changed_current, churned
        ),
    )


#: Name of the registry series longitudinal campaigns publish rows to.
CAMPAIGN_SERIES = "campaign.snapshots"


class CampaignLog:
    """The per-snapshot record a ``repro longitudinal`` campaign keeps.

    One :class:`SnapshotStability` row per family and one metric-series row
    per poll, in poll order; a resumed campaign starts from the rows its
    checkpoint carried.  Every field is a function of the campaign's
    deterministic state — simulated time, observation and delta counts,
    set stability, and the network's cumulative IDS probe spend.  No
    wall-clock quantity ever enters a row (timings belong to spans), which
    is what lets a resumed campaign's rows equal the uninterrupted run's.
    """

    def __init__(
        self,
        stability: dict[AddressFamily, list[SnapshotStability]] | None = None,
        metric_series: list[dict] | None = None,
    ) -> None:
        self.stability: dict[AddressFamily, list[SnapshotStability]] = {
            family: list((stability or {}).get(family, ()))
            for family in (AddressFamily.IPV4, AddressFamily.IPV6)
        }
        self.metric_series: list[dict] = list(metric_series or ())

    def record(
        self,
        campaign: "LongitudinalCampaign",
        capture: SnapshotCapture,
        update: "StreamUpdate",
    ) -> None:
        """Append one poll's rows (and publish its series row when observed)."""
        for family, rows in self.stability.items():
            rows.append(_snapshot_stability(capture, update, family))
        stability = self.stability[AddressFamily.IPV4][-1]
        row = {
            "snapshot": stability.snapshot,
            "time": stability.time,
            "observations": stability.observations,
            "added": stability.added,
            "removed": stability.removed,
            "churned": len(capture.churned),
            "sets": stability.sets,
            "splits": stability.splits,
            "churn_attributed_splits": stability.churn_attributed_splits,
            "disrupted": stability.disrupted,
            "persistence": stability.persistence,
            "probes": sum(campaign.network.export_probe_counts().values()),
        }
        self.metric_series.append(row)
        if obs.is_enabled():
            obs.metrics().append_series(CAMPAIGN_SERIES, row)


class LongitudinalCampaign:
    """Schedules snapshots over a network it churns between them."""

    def __init__(
        self,
        network: SimulatedInternet,
        vantage: VantagePoint = ACTIVE_VANTAGE,
        hitlist: list[str] | None = None,
        config: LongitudinalConfig | None = None,
        options: IdentifierOptions = DEFAULT_OPTIONS,
    ) -> None:
        self._network = network
        self._vantage = vantage
        self._hitlist = list(hitlist) if hitlist else None
        self._config = config or LongitudinalConfig()
        self._options = options

    @property
    def config(self) -> LongitudinalConfig:
        """The campaign configuration."""
        return self._config

    @property
    def network(self) -> SimulatedInternet:
        """The network under measurement (its churn model is mutated)."""
        return self._network

    @property
    def vantage(self) -> VantagePoint:
        """The vantage point every snapshot scans from."""
        return self._vantage

    @property
    def hitlist(self) -> list[str] | None:
        """The IPv6 hitlist, or ``None`` when the campaign is IPv4-only."""
        return self._hitlist

    @property
    def options(self) -> IdentifierOptions:
        """The identifier construction options in use."""
        return self._options

    def _inject_churn(self, snapshot: int, switch_time: float) -> None:
        """Sample churn for one interval and merge it into the network."""
        config = self._config
        if config.churn_fraction <= 0:
            return
        rng = random.Random(f"{config.seed}|churn|{snapshot}")
        model = ChurnModel.sample(
            self._network.all_addresses(),
            sorted(device.device_id for device in self._network.devices()),
            fraction=config.churn_fraction,
            switch_time=switch_time,
            rng=rng,
        )
        for event in model.events():
            self._network.churn.add(event)

    def _scan(self, snapshot: int, start_time: float) -> list[Observation]:
        """Scan both families at ``start_time``.

        Unlike the single-shot session sources (whose ``active-ipv6`` scan
        runs a day after the IPv4 scan), both scans run at
        the snapshot time, so every measurement of snapshot ``k`` falls
        inside the churn-attribution window ``(t_k - interval, t_k]`` —
        otherwise churn switching right after ``t_k`` would disrupt the
        snapshot's IPv6 sets without ever being attributed.
        """
        config = self._config
        observations: list[Observation] = []
        ipv4 = ActiveMeasurement(
            self._network, vantage=self._vantage, seed=config.seed + snapshot
        ).run_ipv4(start_time=start_time)
        observations.extend(ipv4)
        if self._hitlist:
            ipv6 = ActiveMeasurement(
                self._network,
                vantage=self._vantage,
                seed=config.seed + 1000 + snapshot,
            ).run_ipv6(self._hitlist, start_time=start_time)
            observations.extend(ipv6)
        return observations

    def replay_churn(self, upto: int) -> None:
        """Re-inject the churn of the intervals before snapshot ``upto``.

        Churn sampling is deterministic in (seed, snapshot, topology), so a
        campaign resumed on a freshly regenerated network calls this with
        the number of completed snapshots and the network carries exactly
        the churn events the interrupted run had injected.
        """
        config = self._config
        for snapshot in range(1, upto):
            time = config.time_of(snapshot)
            self._inject_churn(snapshot, switch_time=time - config.interval / 2)

    def capture(self, snapshot: int) -> SnapshotCapture:
        """Inject churn and scan one snapshot.

        Churn for the interval ``(t_k-1, t_k]`` is injected before snapshot
        ``k`` scans, with the switch in the middle of the interval.  The
        per-snapshot ``churned`` attribution also picks up churn the
        network already carried (e.g. the topology generator's built-in
        events) whose switch time falls inside the interval.

        One daemon poll (:mod:`repro.stream.daemon`) is one capture: the
        stream diffs the scan against the previous one when it syncs it.
        """
        config = self._config
        time = config.time_of(snapshot)
        churned = frozenset()
        if snapshot:
            self._inject_churn(snapshot, switch_time=time - config.interval / 2)
            window_start = time - config.interval
            churned = frozenset(
                event.address
                for event in self._network.churn.events()
                if window_start < event.switch_time <= time
            )
        return SnapshotCapture(
            index=snapshot,
            time=time,
            observations=tuple(self._scan(snapshot, time)),
            churned=churned,
        )

    def collect(self) -> list[SnapshotCapture]:
        """Capture every snapshot of the campaign, in order."""
        return [self.capture(snapshot) for snapshot in range(self._config.snapshots)]
