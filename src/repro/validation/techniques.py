"""IPID technique pipelines over a shared sample bank.

The MIDAR estimation → elimination → corroboration pipeline and the
pairwise Ally test are engines over an :class:`~repro.validation.bank.
IpidSampleBank`, which is what lets composed validations share collected
series.  Both run one pair test in one corroboration loop, each on its
own schedule and bounds.  Banked evidence is read only while it is within
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
from typing import Iterable, NamedTuple, Sequence

from repro.baselines.ipid import (
    IpidTimeSeries,
    TargetClass,
    classify_series,
    shared_counter_test,
)
from repro.core.alias_resolution import IntUnionFind
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


class _PairTest(NamedTuple):
    """A technique's pair test: its interleaved schedule, the probes a
    banked read stands in for, and its monotonic bounds test's limits."""

    rounds: int
    interval: float
    reused: int
    min_responses: int
    max_velocity: float


_ALLY_PAIR_TEST = _PairTest(ALLY_ROUNDS, ALLY_INTERVAL, 2 * ALLY_ROUNDS, 2, ALLY_MAX_VELOCITY)


def _pair_series(
    bank: IpidSampleBank,
    budget: ProbeBudget,
    test: _PairTest,
    left: str,
    right: str,
    start_time: float,
) -> tuple[dict[str, IpidTimeSeries], float]:
    """The pair's interleaved series and the time its probing ended.

    A fresh banked collection of the pair is read free of time, crediting
    ``test.reused`` probes; otherwise ``2 × rounds`` probes are requested
    from ``budget``, collected through the bank and charged.

    Raises:
        ProbeBudgetExhausted: when the budget denies the fresh probes.
    """
    banked = bank.cached_interleaved(
        left, right, requested_probes=test.reused, now=start_time, max_age=DEFAULT_VELOCITY_TTL
    )
    if banked is not None:
        return banked, start_time
    probes = 2 * test.rounds
    if not budget.request(probes):
        raise ProbeBudgetExhausted(
            f"testing {left}/{right} needs {probes} fresh probes; the probe budget is exhausted"
        )
    series = bank.interleaved(
        (left, right), rounds=test.rounds, interval=test.interval, start_time=start_time
    )
    budget.charge(probes)
    return series, start_time + probes * test.interval


def _corroborate(
    bank: IpidSampleBank,
    budget: ProbeBudget,
    test: _PairTest,
    members: Sequence[str],
    start_time: float,
    velocities: dict[str, float] | None = None,
) -> tuple[list[set[str]], set[str], float]:
    """Union the ``members`` whose pair tests pass; returns (groups,
    responded members, end time).

    Pairs already connected are skipped.  Given MIDAR's ``velocities``, a
    pair whose ratio exceeds :data:`MIDAR_VELOCITY_RATIO_BOUND` is
    declined.  A side responded with ``test.min_responses`` samples; a
    pair passes when both did and their merged samples pass the monotonic
    bounds test.
    """
    union_find = IntUnionFind(len(members))
    responded: set[str] = set()
    now = start_time
    for left_at, left in enumerate(members):
        for right_at in range(left_at + 1, len(members)):
            right = members[right_at]
            if union_find.find(left_at) == union_find.find(right_at):
                continue
            if velocities is not None:
                low, high = sorted(
                    (max(velocities.get(left, 0.1), 0.1), max(velocities.get(right, 0.1), 0.1))
                )
                if not high / low <= MIDAR_VELOCITY_RATIO_BOUND:
                    continue
            series, now = _pair_series(bank, budget, test, left, right, now)
            left_samples, right_samples = series[left].samples, series[right].samples
            left_ok = len(left_samples) >= test.min_responses
            right_ok = len(right_samples) >= test.min_responses
            if left_ok:
                responded.add(left)
            if right_ok:
                responded.add(right)
            if (
                left_ok
                and right_ok
                and shared_counter_test(left_samples + right_samples, max_velocity=test.max_velocity)
            ):
                union_find.union(left_at, right_at)
    groups = [{members[at] for at in group} for group in union_find.groups()]
    return groups, responded, now


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
        rounds = self._config.corroboration_rounds
        self._pair_test = _PairTest(
            rounds,
            MIDAR_CORROBORATION_INTERVAL,
            MIDAR_CORROBORATION_PASSES * 2 * rounds,
            MIDAR_MIN_RESPONSES,
            MIDAR_MAX_VELOCITY,
        )

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
        groups, _, now = _corroborate(
            self._bank, self._budget, self._pair_test, usable, now, velocities
        )
        partition = canonical_partition(groups)
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

    def test_pair(self, left: str, right: str, start_time: float = 0.0) -> AllyPairResult:
        """Test one pair, from fresh banked series when there are any.

        Raises:
            ProbeBudgetExhausted: when the pair needs fresh probes and the
                budget denies them.
        """
        issued_before = self._bank.probes_issued
        groups, responded, _ = _corroborate(
            self._bank, self._budget, _ALLY_PAIR_TEST, (left, right), start_time
        )
        return AllyPairResult(
            left=left,
            right=right,
            left_responded=left in responded,
            right_responded=right in responded,
            aliases=len(groups) == 1,
            reused=self._bank.probes_issued == issued_before,
        )

    def verify_set(self, candidate: Iterable[str], start_time: float = 0.0) -> SetVerdict:
        """Run the pairwise loop over one candidate set's first
        :data:`ALLY_MAX_SET_SIZE` members.

        The set is testable when at least two members answered some pair
        test with two or more samples; the verdict's ``partition`` groups
        those members by passing pair tests.
        """
        members = tuple(sorted(candidate)[:ALLY_MAX_SET_SIZE])
        groups, responded, now = _corroborate(
            self._bank, self._budget, _ALLY_PAIR_TEST, members, start_time
        )
        partition = canonical_partition(
            group & responded for group in groups if group & responded
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
