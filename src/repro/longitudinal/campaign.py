"""Multi-snapshot measurement campaigns over a churning simulated Internet.

The paper's MIDAR validation ran for three weeks, and the few-percent
disagreement with the SSH-derived sets is attributed to addresses that
moved between devices during that window.  This module makes that
mechanism measurable end to end: a :class:`LongitudinalCampaign` schedules
N active-scan snapshots, injects sampled churn between consecutive
snapshots (:meth:`~repro.simnet.churn.ChurnModel.sample`), diffs each
snapshot against its predecessor, feeds the delta through the incremental
:class:`~repro.longitudinal.engine.LongitudinalEngine`, and reports
per-snapshot stability: how many alias sets persisted, split, migrated —
and how many of those disruptions are attributable to the injected churn.

Collection and resolution are separate phases (:meth:`collect` /
:meth:`resolve`) so re-resolution can be timed or tested without
re-running the simulated scans.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Iterable

from repro import obs
from repro.core.engine import AliasReport
from repro.core.identifiers import DEFAULT_OPTIONS, IdentifierOptions
from repro.errors import SimulationError
from repro.longitudinal.delta import AliasDelta, ObservationDelta, diff_observations
from repro.longitudinal.engine import IncrementalResolution, LongitudinalEngine
from repro.net.addresses import AddressFamily
from repro.simnet.churn import ChurnModel
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.sources.active import ActiveMeasurement
from repro.sources.records import Observation


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
        start_time: simulation time of the first snapshot.
        seed: drives churn sampling and the per-snapshot scans.
    """

    snapshots: int = 4
    interval: float = 7 * 86400.0
    churn_fraction: float = 0.02
    start_time: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.snapshots < 1:
            raise SimulationError("a campaign needs at least one snapshot")
        if not 0.0 <= self.churn_fraction < 1.0:
            raise SimulationError("churn_fraction must be in [0, 1)")
        if not (self.interval > 0 and math.isfinite(self.interval)):
            raise SimulationError(
                f"interval must be positive and finite (got {self.interval})"
            )


@dataclasses.dataclass(frozen=True)
class SnapshotCapture:
    """What one snapshot observed, before resolution.

    Attributes:
        index: snapshot number (0-based).
        time: simulation time the snapshot's scan started.
        observations: every observation of the snapshot.
        delta: difference against the previous snapshot (``None`` for the
            first snapshot).
        churned: addresses whose churn switch time falls inside the
            interval ending at this snapshot — the ground truth against
            which set disruptions are attributed.
    """

    index: int
    time: float
    observations: tuple[Observation, ...]
    delta: ObservationDelta | None
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


@dataclasses.dataclass(frozen=True)
class SnapshotResolution:
    """One snapshot's capture plus its (incremental) resolution."""

    capture: SnapshotCapture
    resolution: IncrementalResolution

    @property
    def report(self) -> AliasReport:
        """The snapshot's full alias report."""
        return self.resolution.report

    def alias_delta(self, family: AddressFamily = AddressFamily.IPV4) -> AliasDelta:
        """The union-set delta of one family."""
        if family is AddressFamily.IPV4:
            return self.resolution.ipv4_delta
        return self.resolution.ipv6_delta

    def stability(self, family: AddressFamily = AddressFamily.IPV4) -> SnapshotStability:
        """Stability metrics of this snapshot for one family."""
        delta = self.alias_delta(family)
        union = (
            self.report.ipv4_union
            if family is AddressFamily.IPV4
            else self.report.ipv6_union
        )
        churned = self.capture.churned
        observation_delta = self.capture.delta
        changed_current = delta.born + delta.grown + delta.shrunk + delta.migrated
        return SnapshotStability(
            snapshot=self.capture.index,
            time=self.capture.time,
            observations=len(self.capture.observations),
            added=len(observation_delta.added) if observation_delta else 0,
            removed=len(observation_delta.removed) if observation_delta else 0,
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


def snapshot_metrics_row(
    campaign: "LongitudinalCampaign", resolved: SnapshotResolution
) -> dict:
    """One metric-series row for a resolved snapshot.

    Every field is a function of the campaign's deterministic state —
    simulated time, observation/delta counts, IPv4 union-set stability, and
    the network's cumulative IDS probe spend.  No wall-clock quantity ever
    enters a row (timings belong to spans), which is what
    lets a resumed campaign's persisted series equal the uninterrupted
    run's snapshot-for-snapshot.
    """
    stability = resolved.stability()
    return {
        "snapshot": resolved.capture.index,
        "time": resolved.capture.time,
        "observations": len(resolved.capture.observations),
        "added": stability.added,
        "removed": stability.removed,
        "churned": len(resolved.capture.churned),
        "sets": stability.sets,
        "splits": stability.splits,
        "churn_attributed_splits": stability.churn_attributed_splits,
        "disrupted": stability.disrupted,
        "persistence": stability.persistence,
        "probes": sum(campaign.network.export_probe_counts().values()),
    }


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """Everything a longitudinal campaign produced."""

    config: LongitudinalConfig
    snapshots: tuple[SnapshotResolution, ...]

    def stability(
        self, family: AddressFamily = AddressFamily.IPV4
    ) -> list[SnapshotStability]:
        """Per-snapshot stability rows (the first snapshot has no delta)."""
        return [snapshot.stability(family) for snapshot in self.snapshots]

    @property
    def final_report(self) -> AliasReport:
        """The last snapshot's report."""
        return self.snapshots[-1].report


class LongitudinalCampaign:
    """Schedules snapshots, injects churn, and resolves incrementally."""

    def __init__(
        self,
        network: SimulatedInternet,
        vantage: VantagePoint | None = None,
        hitlist: list[str] | None = None,
        config: LongitudinalConfig | None = None,
        options: IdentifierOptions = DEFAULT_OPTIONS,
    ) -> None:
        self._network = network
        self._vantage = vantage or VantagePoint(name="active-de", address="192.0.2.250")
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

    # ------------------------------------------------------------------ #
    # Phase 1: data collection
    # ------------------------------------------------------------------ #
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
            time = config.start_time + snapshot * config.interval
            self._inject_churn(snapshot, switch_time=time - config.interval / 2)

    def capture(
        self, snapshot: int, previous: tuple[Observation, ...] | None
    ) -> SnapshotCapture:
        """Inject churn, scan, and diff one snapshot against ``previous``.

        Churn for the interval ``(t_k-1, t_k]`` is injected before snapshot
        ``k`` scans, with the switch in the middle of the interval.  The
        per-snapshot ``churned`` attribution also picks up churn the
        network already carried (e.g. the topology generator's built-in
        events) whose switch time falls inside the interval.

        Public because the streaming daemon (:mod:`repro.stream.daemon`)
        drives the simnet as a live event source through exactly this
        method — one poll is one capture — so a daemon poll sequence is
        observation-for-observation the campaign's snapshot sequence.
        """
        config = self._config
        time = config.start_time + snapshot * config.interval
        churned = frozenset()
        if snapshot:
            self._inject_churn(snapshot, switch_time=time - config.interval / 2)
            window_start = time - config.interval
            churned = frozenset(
                event.address
                for event in self._network.churn.events()
                if window_start < event.switch_time <= time
            )
        observations = tuple(self._scan(snapshot, time))
        delta = diff_observations(previous, observations) if snapshot else None
        return SnapshotCapture(
            index=snapshot,
            time=time,
            observations=observations,
            delta=delta,
            churned=churned,
        )

    def collect(
        self,
        start: int = 0,
        previous: tuple[Observation, ...] | None = None,
    ) -> list[SnapshotCapture]:
        """Run the snapshot scans from ``start`` and compute the deltas.

        ``start > 0`` resumes a campaign mid-run: ``previous`` must be the
        observations of snapshot ``start - 1`` (what a checkpoint stores)
        and the network must already carry the earlier intervals' churn
        (see :meth:`replay_churn`).
        """
        if start and previous is None:
            raise SimulationError(
                "resuming collection needs the previous snapshot's observations"
            )
        captures: list[SnapshotCapture] = []
        for snapshot in range(start, self._config.snapshots):
            capture = self.capture(snapshot, previous)
            captures.append(capture)
            previous = capture.observations
        return captures

    # ------------------------------------------------------------------ #
    # Phase 2: incremental resolution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_one(
        engine: LongitudinalEngine, capture: SnapshotCapture
    ) -> SnapshotResolution:
        """Resolve one capture: bootstrap without a delta, replay with one."""
        if capture.delta is None:
            resolution = engine.bootstrap(capture.observations, name=capture.name)
        else:
            resolution = engine.apply(capture.delta, name=capture.name)
        return SnapshotResolution(capture=capture, resolution=resolution)

    def resolve(
        self,
        captures: Iterable[SnapshotCapture],
        engine: LongitudinalEngine | None = None,
    ) -> CampaignResult:
        """Resolve a capture sequence incrementally.

        Pass a restored ``engine`` (:meth:`LongitudinalEngine.restore`) to
        continue a checkpointed campaign: the first capture then carries a
        delta and replays against the restored index instead of
        bootstrapping.
        """
        engine = engine or LongitudinalEngine(self._options)
        resolutions = [self._resolve_one(engine, capture) for capture in captures]
        return CampaignResult(config=self._config, snapshots=tuple(resolutions))

    def run(
        self,
        checkpointer=None,
        start: int = 0,
        previous: tuple[Observation, ...] | None = None,
        engine: LongitudinalEngine | None = None,
    ) -> CampaignResult:
        """Collect and resolve the campaign, snapshot by snapshot.

        Unlike ``resolve(collect())`` — which separates the two phases —
        this interleaves collection and resolution, so a ``checkpointer``
        (:class:`repro.persist.campaign.CampaignCheckpointer`) can persist
        a consistent state after every snapshot.  ``start``, ``previous``
        and ``engine`` resume a checkpointed campaign mid-run.
        """
        if start and (previous is None or engine is None):
            raise SimulationError(
                "resuming a campaign needs the previous snapshot's observations "
                "and a restored engine"
            )
        engine = engine or LongitudinalEngine(self._options)
        resolutions: list[SnapshotResolution] = []
        for snapshot in range(start, self._config.snapshots):
            with obs.span("campaign.snapshot", snapshot=snapshot):
                capture = self.capture(snapshot, previous)
                resolved = self._resolve_one(engine, capture)
            resolutions.append(resolved)
            previous = capture.observations
            if obs.is_enabled():
                row = snapshot_metrics_row(self, resolved)
                obs.metrics().append_series(CAMPAIGN_SERIES, row)
                obs.add("campaign.snapshots.resolved", 1)
                obs.add("campaign.observations", row["observations"])
            if checkpointer is not None:
                checkpointer.save(self, engine, resolved)
        return CampaignResult(config=self._config, snapshots=tuple(resolutions))
