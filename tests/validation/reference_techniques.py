# src/repro/validation/techniques.py as it was before MIDAR and Ally ran
# one pair test in one corroboration loop, kept verbatim (its UnionFind
# import names reference_union_find, the hashable union-find deleted with
# it) as the reference of the current module: test_technique_parity.py
# requires the same verdicts, end times, budget spend and bank counters.
# Do not "fix" this module.
"""IPID technique pipelines over a shared sample bank.

The MIDAR estimation → elimination → corroboration pipeline and the
pairwise Ally test are engines over an :class:`~repro.validation.bank.
IpidSampleBank`, which is what lets composed validations share collected
series.  Banked evidence is read only while it is within
:data:`~repro.validation.budget.DEFAULT_VELOCITY_TTL` of the read, and
every fresh collection is requested from and charged to a
:class:`~repro.validation.budget.ProbeBudget`.  Both return each set's
:class:`~repro.validation.report.SetVerdict`, the type every validation
report lists.  Run one over a private bank (and its own uncapped budget)
for a self-contained prober::

    MidarPipeline(IpidSampleBank(network, vantage)).verify_sets(candidates)
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.baselines.ipid import (
    IpidTimeSeries,
    TargetClass,
    classify_series,
    shared_counter_test,
)
from reference_union_find import UnionFind
from repro.validation.bank import IpidSampleBank
from repro.validation.budget import DEFAULT_VELOCITY_TTL, ProbeBudget, ProbeBudgetExhausted
from repro.validation.report import SetVerdict, canonical_partition

#: MIDAR's schedule and tests, Speedtrap's too: seconds between probes,
#: passes over a pair, responses a target needs, the counter velocity the
#: monotonic bounds test allows, the largest velocity ratio of a pair it
#: corroborates, and the most members of one candidate set it tests.
MIDAR_ESTIMATION_INTERVAL = 2.0
MIDAR_CORROBORATION_INTERVAL = 1.0
MIDAR_CORROBORATION_PASSES = 2
MIDAR_MIN_RESPONSES = 3
MIDAR_MAX_VELOCITY = 2_000.0
MIDAR_VELOCITY_RATIO_BOUND = 20.0
MIDAR_MAX_SET_SIZE = 10

#: The most members of one candidate set Ally tests: the paper's sample
#: bound, as :data:`MIDAR_MAX_SET_SIZE` is MIDAR's.
ALLY_MAX_SET_SIZE = 10
#: Ally's pair test: rounds of one probe per member, seconds between
#: probes, and the counter velocity the monotonic bounds test allows.
ALLY_ROUNDS = 3
ALLY_INTERVAL = 0.5
ALLY_MAX_VELOCITY = 2_000.0


@dataclasses.dataclass(frozen=True)
class MidarConfig:
    """MIDAR's probe counts: estimation samples per target and rounds per
    corroboration pass, both fewer in Speedtrap's ``SPEEDTRAP_CONFIG``."""

    estimation_samples: int = 8
    corroboration_rounds: int = 6


class MidarPipeline:
    """The MIDAR estimation/elimination/corroboration stages over a bank.

    Three levers keep the probe count down.  Estimation reads the bank's
    canonical series while it is fresh, and a fresh collection stops once
    the target's class is decided.  A corroboration pair already connected
    by passing tests is skipped: a pass would union nothing and a failure
    never splits, so the partition cannot change.  And a pair is probed
    for one corroboration pass only; the repeat passes re-read it, since
    the members' velocities were just estimated fresh.  Reads served from
    the bank consume no simulated time.
    """

    def __init__(
        self,
        bank: IpidSampleBank,
        config: MidarConfig | None = None,
        budget: ProbeBudget | None = None,
    ) -> None:
        self._bank = bank
        self._config = config or MidarConfig()
        self._budget = budget if budget is not None else ProbeBudget()

    @property
    def bank(self) -> IpidSampleBank:
        """The sample bank the pipeline collects through."""
        return self._bank

    # ------------------------------------------------------------------ #
    # Stage 1: estimation
    # ------------------------------------------------------------------ #
    def estimate(
        self, addresses: Sequence[str], start_time: float
    ) -> tuple[dict[str, TargetClass], dict[str, float], float]:
        """Classify every address; returns (classes, velocities, end_time).

        Fresh collections charge the budget and advance the clock by the
        probes actually issued — the collection stops early once the
        address's class is decided (see
        :meth:`IpidSampleBank._collect_estimation`), so a random-IPID
        target costs a few probes, not the full schedule.  Reads served
        from the canonical series (or, after a reload, from a restored
        bank) are free in both probes and simulated time.
        """
        budget = self._budget
        classes: dict[str, TargetClass] = {}
        velocities: dict[str, float] = {}
        now = start_time
        cost = self._config.estimation_samples
        for address in addresses:
            free = self._bank.estimation_free(
                address, cost, MIDAR_ESTIMATION_INTERVAL, now, max_age=DEFAULT_VELOCITY_TTL
            )
            if not free and not budget.request(cost):
                raise ProbeBudgetExhausted(
                    f"estimating {address} needs {cost} fresh probes; "
                    "the probe budget is exhausted"
                )
            series, issued = self._bank.estimation_series(
                address,
                cost,
                MIDAR_ESTIMATION_INTERVAL,
                now,
                max_age=DEFAULT_VELOCITY_TTL,
                early_stop=(MIDAR_MIN_RESPONSES, MIDAR_MAX_VELOCITY),
            )
            if issued:
                budget.charge(issued)
                now += issued * MIDAR_ESTIMATION_INTERVAL
            classes[address] = classify_series(
                series, min_responses=MIDAR_MIN_RESPONSES, max_velocity=MIDAR_MAX_VELOCITY
            )
            velocity = series.velocity()
            if velocity is not None:
                velocities[address] = velocity
        return classes, velocities, now

    # ------------------------------------------------------------------ #
    # Stage 2 + 3: elimination and corroboration
    # ------------------------------------------------------------------ #
    def _velocity_compatible(self, left: float, right: float) -> bool:
        low, high = sorted((max(left, 0.1), max(right, 0.1)))
        return high / low <= MIDAR_VELOCITY_RATIO_BOUND

    def _pair_decision(
        self, series: dict[str, IpidTimeSeries], left: str, right: str
    ) -> bool:
        """The monotonic-bounds decision over one interleaved collection."""
        left_samples = series[left].samples
        right_samples = series[right].samples
        if (
            len(left_samples) < MIDAR_MIN_RESPONSES
            or len(right_samples) < MIDAR_MIN_RESPONSES
        ):
            return False
        return shared_counter_test(
            left_samples + right_samples, max_velocity=MIDAR_MAX_VELOCITY
        )

    def _pair_shares_counter(
        self, left: str, right: str, start_time: float
    ) -> tuple[bool, float]:
        """Corroborate one pair, bank-first and budget-aware.

        A banked collection of the pair that is still fresh decides
        without probing or consuming time.  Otherwise the pair is probed
        fresh for the first pass only, and the repeat passes reproduce its
        decision — which halves the per-pair corroboration cost.
        """
        rounds = self._config.corroboration_rounds
        budget = self._budget
        per_pass = 2 * rounds
        banked = self._bank.cached_interleaved(
            left,
            right,
            requested_probes=MIDAR_CORROBORATION_PASSES * per_pass,
            now=start_time,
            max_age=DEFAULT_VELOCITY_TTL,
        )
        if banked is not None:
            return self._pair_decision(banked, left, right), start_time
        if not budget.request(per_pass):
            raise ProbeBudgetExhausted(
                f"corroborating {left}/{right} needs {per_pass} fresh "
                "probes; the probe budget is exhausted"
            )
        issued_before = self._bank.probes_issued
        series = self._bank.interleaved(
            (left, right),
            rounds=rounds,
            interval=MIDAR_CORROBORATION_INTERVAL,
            start_time=start_time,
        )
        shares = self._pair_decision(series, left, right)
        budget.charge(self._bank.probes_issued - issued_before)
        return shares, start_time + per_pass * MIDAR_CORROBORATION_INTERVAL

    def verify_set(self, candidate: Iterable[str], start_time: float = 0.0) -> SetVerdict:
        """Run the full pipeline on one candidate alias set.

        The verdict's ``classes`` are every member's estimation-stage
        :class:`~repro.baselines.ipid.TargetClass` value, and its
        ``partition`` the usable members grouped by corroboration (empty
        when fewer than two are usable).

        Raises:
            ProbeBudgetExhausted: when the budget denies a fresh
                collection the set needs.
        """
        members = sorted(candidate)[:MIDAR_MAX_SET_SIZE]
        classes, velocities, now = self.estimate(members, start_time)
        usable = [address for address in members if classes[address] is TargetClass.USABLE]
        labels = tuple(sorted((address, target.value) for address, target in classes.items()))
        if len(usable) < 2:
            return SetVerdict(
                candidate=frozenset(members),
                testable=False,
                agrees=False,
                partition=(),
                classes=labels,
                started_at=start_time,
                finished_at=now,
            )
        # Pairwise corroboration over velocity-compatible, unconnected pairs.
        union_find = UnionFind()
        for address in usable:
            union_find.add(address)
        for index, left in enumerate(usable):
            for right in usable[index + 1 :]:
                if union_find.find(left) == union_find.find(right):
                    continue
                if not self._velocity_compatible(
                    velocities.get(left, 0.1), velocities.get(right, 0.1)
                ):
                    continue
                shares, now = self._pair_shares_counter(left, right, now)
                if shares:
                    union_find.union(left, right)
        partition = canonical_partition(union_find.groups())
        return SetVerdict(
            candidate=frozenset(members),
            testable=True,
            agrees=len(partition) == 1,
            partition=partition,
            classes=labels,
            started_at=start_time,
            finished_at=now,
        )

    def verify_sets(
        self, candidates: Iterable[Iterable[str]], start_time: float = 0.0
    ) -> list[SetVerdict]:
        """Verify many candidate sets sequentially (a MIDAR "run").

        The sets are probed one after another, so a long run exposes later
        sets to more churn — the effect the paper blames for part of its
        SSH/MIDAR disagreement.
        """
        verdicts = []
        now = start_time
        for candidate in candidates:
            verdict = self.verify_set(candidate, start_time=now)
            verdicts.append(verdict)
            now = verdict.finished_at
        return verdicts


@dataclasses.dataclass(frozen=True)
class AllyPairResult:
    """Outcome of one Ally pair test through the bank.

    ``left_responded`` / ``right_responded`` expose the per-side response
    status the set-level verdict needs; ``reused`` records whether the
    samples came from the bank (no probes issued, no time consumed).
    """

    left: str
    right: str
    left_responded: bool
    right_responded: bool
    aliases: bool
    reused: bool

    @property
    def responded(self) -> bool:
        """Whether both sides produced enough samples to test."""
        return self.left_responded and self.right_responded


class AllyPipeline:
    """Pairwise Ally tests over a bank.

    A pair that some validator already probed together (any interleaved
    schedule) within the staleness bound is decided from the banked series
    without touching the network; older evidence is re-probed, and fresh
    pair tests spend from the budget.
    """

    def __init__(self, bank: IpidSampleBank, budget: ProbeBudget | None = None) -> None:
        self._bank = bank
        self._budget = budget if budget is not None else ProbeBudget()

    @property
    def bank(self) -> IpidSampleBank:
        """The sample bank the pipeline collects through."""
        return self._bank

    @property
    def pair_duration(self) -> float:
        """Simulated seconds one freshly probed pair test occupies."""
        return 2 * ALLY_ROUNDS * ALLY_INTERVAL

    def _decide(self, series: dict, left: str, right: str, reused: bool) -> AllyPairResult:
        left_samples = series[left].samples
        right_samples = series[right].samples
        left_ok = len(left_samples) >= 2
        right_ok = len(right_samples) >= 2
        aliases = False
        if left_ok and right_ok:
            aliases = shared_counter_test(
                left_samples + right_samples, max_velocity=ALLY_MAX_VELOCITY
            )
        return AllyPairResult(
            left=left,
            right=right,
            left_responded=left_ok,
            right_responded=right_ok,
            aliases=aliases,
            reused=reused,
        )

    def test_pair(self, left: str, right: str, start_time: float = 0.0) -> AllyPairResult:
        """Test one pair, from fresh banked series when there are any.

        Raises:
            ProbeBudgetExhausted: when the pair needs fresh probes and the
                budget denies them.
        """
        requested = 2 * ALLY_ROUNDS
        cached = self._bank.cached_interleaved(
            left,
            right,
            requested_probes=requested,
            now=start_time,
            max_age=DEFAULT_VELOCITY_TTL,
        )
        if cached is not None:
            return self._decide(cached, left, right, reused=True)
        if not self._budget.request(requested):
            raise ProbeBudgetExhausted(
                f"Ally pair {left}/{right} needs {requested} fresh probes; "
                "the probe budget is exhausted"
            )
        issued_before = self._bank.probes_issued
        series = self._bank.interleaved(
            (left, right),
            rounds=ALLY_ROUNDS,
            interval=ALLY_INTERVAL,
            start_time=start_time,
        )
        self._budget.charge(self._bank.probes_issued - issued_before)
        return self._decide(series, left, right, reused=False)

    def verify_set(self, candidate: Iterable[str], start_time: float = 0.0) -> SetVerdict:
        """Run the pairwise loop over one candidate set's first
        :data:`ALLY_MAX_SET_SIZE` members.

        The set is testable when at least two members answered some pair
        test with two or more samples; the verdict's ``partition`` groups
        those members by passing pair tests.
        """
        members = tuple(sorted(candidate)[:ALLY_MAX_SET_SIZE])
        union_find = UnionFind()
        responded: set[str] = set()
        for address in members:
            union_find.add(address)
        now = start_time
        for index, left in enumerate(members):
            for right in members[index + 1 :]:
                if union_find.find(left) == union_find.find(right):
                    continue
                verdict = self.test_pair(left, right, start_time=now)
                if not verdict.reused:
                    now += self.pair_duration
                if verdict.left_responded:
                    responded.add(left)
                if verdict.right_responded:
                    responded.add(right)
                if verdict.aliases:
                    union_find.union(left, right)
        partition = canonical_partition(
            group & responded for group in union_find.groups() if group & responded
        )
        testable = len(responded) >= 2
        return SetVerdict(
            candidate=frozenset(members),
            testable=testable,
            agrees=testable and len(partition) == 1,
            partition=partition,
            started_at=start_time,
            finished_at=now,
        )
