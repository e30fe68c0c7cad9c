"""The probe-budget optimizer: shared estimation, velocity cache, scheduler.

The paper's central cost at Internet scale is probes, not CPU: MIDAR-style
IPID estimation dominates the probe count, and reaching the "millions of
candidate sets" regime means making validation probe cost the optimized
quantity.  The shared :class:`~repro.validation.bank.IpidSampleBank`
(exact-schedule memoisation) reuses only a few percent of probes on a
composed validation; this module layers four cooperating optimisations on
top of it:

* **Shared estimation** — :meth:`IpidSampleBank.estimation_series` keeps
  one canonical estimation collection per (address, schedule shape) and
  vantage; MIDAR, Ally-style and Speedtrap estimation reads are satisfied
  from it whenever their windows align, instead of collecting
  per-validator series.  Fresh collections stop as soon as the address's
  target class is already decided: a monotonic-bounds violation between
  consecutive responses can never be repaired by later samples, so a
  random-IPID target is classified ``NON_MONOTONIC`` after a handful of
  probes instead of the full estimation schedule.
* **Velocity cache** — :class:`VelocityCache` memoises each address's
  estimation verdict (target class + counter velocity) with a
  simulated-time staleness bound: a candidate set whose member velocities
  are fresh is re-scored without re-probing, while a staleness-expired
  entry always falls back to live probing (it is never silently reused —
  the guard that keeps longitudinal validation honest across churn).
* **Probe budget** — :class:`ProbeBudget` is a global fresh-probe
  allowance spent across candidate sets in priority order (largest /
  most-uncertain first).  Once a request is denied the budget *closes*:
  no further fresh probes are issued at all, so a capped run's fresh-probe
  sequence is an exact prefix of the uncapped run's.  Sets the budget
  cannot afford are reported ``unresolved`` — never mis-verdicted — and
  sets answerable entirely from the bank still resolve for free.
* **Redundancy elimination** — :class:`BudgetedMidarPipeline` skips
  corroboration pairs already connected by earlier passing tests
  (partition-invariant: a passing test between connected members unions
  nothing, and a failing one never splits) and answers repeat
  corroboration passes from the banked first pass while the pair's
  velocities are fresh.

Decision parity with the plain pipelines holds where
``benchmarks/bench_budget.py`` measures it: from a distributed vantage
with ``loss_rate=0``, an uncapped run decides every set (testable, agrees,
partition) as the plain pipelines do, with ≥40% fewer probes.  It is not
universal.  From the default lossy vantage at scale 0.125, an uncapped
``validate_budgeted(["midar"])`` decides 2 of 150 sets differently from
``validate("midar")`` for seed 0, and 5 of 150 for seed 2.

Entry points: :func:`run_budgeted` (also behind
``ReproSession.validate_budgeted`` and ``repro validate --budget N``) and
:func:`consensus_report`, the fold behind the ``consensus()`` validator
kind (N techniques, one bank, per-set majority/conflict report).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.baselines.ipid import (
    IpidTimeSeries,
    TargetClass,
    classify_series,
    shared_counter_test,
)
from repro.core.alias_resolution import UnionFind
from repro.errors import ValidationError
from repro.net.addresses import is_ipv6
from repro.validation.bank import IpidSampleBank
from repro.validation.report import (
    CandidateSets,
    SetVerdict,
    ValidationReport,
    canonical_partition,
)
from repro.validation.spec import VALIDATORS, ValidatorSpec, display_name
from repro.validation.techniques import (
    AllyPairResult,
    AllyPipeline,
    MidarConfig,
    MidarPipeline,
    MidarSetVerdict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.validation.runner import ValidationRun

#: Default staleness bound of the velocity cache, in simulated seconds.
#: One day: far longer than any single validation run, far shorter than
#: the week-scale longitudinal intervals, so within-run re-scoring is free
#: while cross-snapshot reuse always re-probes.
DEFAULT_VELOCITY_TTL = 86_400.0

#: Per-address class label marking a candidate set the budget left unprobed.
UNRESOLVED_LABEL = "unresolved"

#: Per-technique outcome labels a consensus verdict's ``classes`` carry.
CONSENSUS_OUTCOMES = frozenset({"agree", "disagree", "untestable", UNRESOLVED_LABEL})


class ProbeBudgetExhausted(ValidationError):
    """Raised inside budgeted pipelines when a fresh-probe request is denied.

    Internal control flow: the budgeted runners catch it per candidate set
    and record the set as unresolved.  It only escapes when a budgeted
    pipeline is driven directly outside a runner.
    """


@dataclasses.dataclass
class ProbeBudget:
    """A global fresh-probe allowance shared across candidate sets.

    ``limit=None`` is unlimited (every request granted, spend still
    tracked).  The first denied request *closes* the budget: every later
    request is denied too, whatever its size.  Closing is what guarantees
    graceful degradation — the fresh probes of a capped run form an exact
    prefix of the uncapped run's sequence, so every verdict the capped run
    still resolves is identical to the uncapped one by construction.
    """

    limit: int | None = None
    spent: int = 0
    closed: bool = False

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 0:
            raise ValidationError(f"probe budget cannot be negative (got {self.limit})")

    def request(self, probes: int) -> bool:
        """Ask to issue ``probes`` fresh probes; denial closes the budget."""
        if self.closed:
            return False
        if self.limit is not None and self.spent + probes > self.limit:
            self.closed = True
            return False
        return True

    def charge(self, probes: int) -> None:
        """Record ``probes`` fresh probes actually issued."""
        self.spent += probes

    @property
    def remaining(self) -> int | None:
        """Probes left before the limit (``None`` when unlimited)."""
        if self.limit is None:
            return None
        return max(0, self.limit - self.spent)


@dataclasses.dataclass(frozen=True)
class VelocityEntry:
    """One address's cached estimation verdict.

    ``observed_at`` is the simulated time the underlying canonical series
    was collected — the quantity the staleness bound compares against.
    """

    address: str
    target_class: TargetClass
    velocity: float | None
    observed_at: float


class VelocityCache:
    """Per-address estimation verdicts with a simulated-time staleness bound.

    Entries key on the estimation schedule shape *and* the classification
    parameters, so validators with different configurations never share a
    verdict their own parameters would not have produced.  An entry is
    served only while fresh (``|now - observed_at| <= ttl``); expired
    entries are replaced by live re-estimation, never silently reused.
    """

    def __init__(self, ttl: float = DEFAULT_VELOCITY_TTL) -> None:
        if ttl <= 0:
            raise ValidationError(f"velocity-cache ttl must be positive (got {ttl})")
        self.ttl = ttl
        self._entries: dict[tuple[str, int, float, int, float], VelocityEntry] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(address: str, config: MidarConfig) -> tuple[str, int, float, int, float]:
        return (
            address,
            config.estimation_samples,
            config.estimation_interval,
            config.min_responses,
            config.max_velocity,
        )

    def entry(self, address: str, config: MidarConfig) -> VelocityEntry | None:
        """The stored entry for one address/configuration, fresh or not."""
        return self._entries.get(self._key(address, config))

    def is_fresh(self, entry: VelocityEntry, now: float) -> bool:
        """Whether ``entry`` is within the staleness bound at ``now``."""
        return abs(now - entry.observed_at) <= self.ttl

    def fresh(self, address: str, config: MidarConfig, now: float) -> VelocityEntry | None:
        """The stored entry if it is fresh at ``now``, else ``None``."""
        entry = self.entry(address, config)
        if entry is not None and self.is_fresh(entry, now):
            return entry
        return None

    def classify(
        self,
        address: str,
        series: IpidTimeSeries,
        observed_at: float,
        config: MidarConfig,
    ) -> VelocityEntry:
        """Memoised classification of one (possibly banked) estimation series.

        A stored entry derived from the same collection (equal
        ``observed_at``) is returned as-is; anything else — including an
        entry of a replaced, staleness-expired collection — is recomputed
        from the series and stored.
        """
        key = self._key(address, config)
        entry = self._entries.get(key)
        if entry is not None and entry.observed_at == observed_at:
            self.hits += 1
            return entry
        self.misses += 1
        entry = VelocityEntry(
            address=address,
            target_class=classify_series(
                series,
                min_responses=config.min_responses,
                max_velocity=config.max_velocity,
            ),
            velocity=series.velocity(),
            observed_at=observed_at,
        )
        self._entries[key] = entry
        return entry


@dataclasses.dataclass(frozen=True)
class SetOutcome:
    """Per-set spend accounting of one budgeted run, in spend order."""

    validator: str
    candidate: frozenset[str]
    outcome: str  # "probed" | "cached" | "unresolved"
    probes_issued: int
    probes_reused: int


class ProbeBudgetOptimizer:
    """Shared optimisation state a budgeted validation run probes through.

    Attach one to a :class:`~repro.validation.runner.ValidationRun`
    (``run.optimizer = ...`` — :func:`run_budgeted` does this for you) and
    the bank-based builders route through the budgeted pipelines: shared
    estimation, the velocity cache, redundancy elimination, and the global
    :class:`ProbeBudget`.  ``budget=None`` optimizes without a cap.
    """

    def __init__(
        self, budget: int | None = None, velocity_ttl: float = DEFAULT_VELOCITY_TTL
    ) -> None:
        self.budget = ProbeBudget(limit=budget)
        self.velocity_cache = VelocityCache(ttl=velocity_ttl)
        self.outcomes: list[SetOutcome] = []

    @property
    def ttl(self) -> float:
        """The staleness bound shared by every reuse decision of the run."""
        return self.velocity_cache.ttl

    def request(self, probes: int) -> bool:
        """Delegate a fresh-probe request to the global budget."""
        return self.budget.request(probes)

    def charge(self, probes: int) -> None:
        """Charge fresh probes actually issued against the global budget."""
        self.budget.charge(probes)

    def record(
        self,
        validator: str,
        candidate: frozenset[str],
        outcome: str,
        probes_issued: int,
        probes_reused: int,
    ) -> None:
        """Record one candidate set's outcome and surface it via obs.

        The ``validation.budget`` counter counts *sets* per outcome
        (``probed`` — fresh probes spent, ``cached`` — answered entirely
        from the bank, ``unresolved`` — skipped by the budget); the probe
        totals themselves ride the existing ``validation.probes`` counter.
        """
        self.outcomes.append(
            SetOutcome(
                validator=validator,
                candidate=candidate,
                outcome=outcome,
                probes_issued=probes_issued,
                probes_reused=probes_reused,
            )
        )
        if obs.is_enabled():
            obs.add("validation.budget", 1, outcome=outcome, validator=validator)


# --------------------------------------------------------------------------- #
# Unresolved verdicts
# --------------------------------------------------------------------------- #
def unresolved_verdict(candidate: Iterable[str], at: float) -> SetVerdict:
    """The verdict of a candidate set the budget left unprobed.

    Unresolved is a first-class outcome, distinct from "tested but
    untestable": ``testable`` is ``False`` (the set never counts toward
    agreement either way) and every member carries the
    :data:`UNRESOLVED_LABEL` class, which :func:`is_unresolved` detects.
    """
    members = tuple(sorted(candidate))
    return SetVerdict(
        candidate=frozenset(members),
        testable=False,
        agrees=False,
        partition=(),
        classes=tuple((address, UNRESOLVED_LABEL) for address in members),
        started_at=at,
        finished_at=at,
    )


def is_unresolved(verdict: SetVerdict) -> bool:
    """Whether a verdict marks a budget-skipped (unprobed) candidate set."""
    return (
        not verdict.testable
        and bool(verdict.classes)
        and all(label == UNRESOLVED_LABEL for _, label in verdict.classes)
    )


# --------------------------------------------------------------------------- #
# Budgeted pipelines
# --------------------------------------------------------------------------- #
class BudgetedMidarPipeline(MidarPipeline):
    """MIDAR over a bank with the optimizer's four levers applied.

    Decision parity with :class:`~repro.validation.techniques.
    MidarPipeline` is the invariant: estimation served from a fresh
    canonical series classifies identically to the collection it memoises;
    a corroboration pair already connected by passing tests is skipped
    (a pass would union nothing, a failure never splits — the partition
    cannot change); and a repeat corroboration pass is answered from the
    banked first pass while velocities are fresh, reproducing that pass's
    decision exactly.  What *can* differ is the probing schedule — cached
    reads consume no simulated time — which is why parity is stated over
    decisions, not timestamps.
    """

    def __init__(
        self,
        bank: IpidSampleBank,
        config: MidarConfig | None,
        optimizer: ProbeBudgetOptimizer,
    ) -> None:
        super().__init__(bank, config)
        self._optimizer = optimizer

    def estimate(
        self, addresses: Sequence[str], start_time: float
    ) -> tuple[dict[str, TargetClass], dict[str, float], float]:
        """Classify every address through the shared estimation stage.

        Fresh collections charge the budget and advance the clock by the
        probes actually issued — the collection stops early once the
        address's class is decided (see
        :meth:`IpidSampleBank._collect_estimation`), so a random-IPID
        target costs a few probes, not the full schedule.  Reads served
        from the canonical series (or, after a reload, from a restored
        bank) are free in both probes and simulated time.
        """
        config = self._config
        optimizer = self._optimizer
        cache = optimizer.velocity_cache
        classes: dict[str, TargetClass] = {}
        velocities: dict[str, float] = {}
        now = start_time
        cost = config.estimation_samples
        for address in addresses:
            free = self._bank.estimation_free(
                address, cost, config.estimation_interval, now, max_age=cache.ttl
            )
            if not free and not optimizer.request(cost):
                raise ProbeBudgetExhausted(
                    f"estimating {address} needs {cost} fresh probes; "
                    "the probe budget is exhausted"
                )
            series, observed_at, issued = self._bank.estimation_series(
                address,
                cost,
                config.estimation_interval,
                now,
                max_age=cache.ttl,
                early_stop=(config.min_responses, config.max_velocity),
            )
            if issued:
                optimizer.charge(issued)
                now += issued * config.estimation_interval
            entry = cache.classify(address, series, observed_at, config)
            classes[address] = entry.target_class
            if entry.velocity is not None:
                velocities[address] = entry.velocity
        return classes, velocities, now

    def _pair_decision(
        self, series: dict[str, IpidTimeSeries], left: str, right: str
    ) -> bool:
        """The monotonic-bounds decision over one interleaved collection."""
        config = self._config
        left_samples = series[left].samples
        right_samples = series[right].samples
        if (
            len(left_samples) < config.min_responses
            or len(right_samples) < config.min_responses
        ):
            return False
        return shared_counter_test(
            left_samples + right_samples, max_velocity=config.max_velocity
        )

    def _pair_shares_counter(
        self, left: str, right: str, start_time: float
    ) -> tuple[bool, float]:
        """Corroborate one pair, bank-first and budget-aware.

        A banked collection of the pair that is still fresh (the velocity
        cache's staleness bound, which also bounds how old pair evidence
        may be) decides without probing or consuming time.  Otherwise the
        pair is probed fresh for the first pass only: the members'
        velocities were just (re-)estimated fresh, so a repeat collection
        adds no information, and the repeat passes reproduce the first
        pass's decision — which halves the per-pair corroboration cost.
        """
        config = self._config
        optimizer = self._optimizer
        per_pass = 2 * config.corroboration_rounds
        requested = config.corroboration_passes * per_pass
        banked = self._bank.cached_interleaved(
            left,
            right,
            requested_probes=requested,
            now=start_time,
            max_age=optimizer.ttl,
        )
        if banked is not None:
            return self._pair_decision(banked, left, right), start_time
        if not optimizer.request(per_pass):
            raise ProbeBudgetExhausted(
                f"corroborating {left}/{right} needs {per_pass} fresh "
                "probes; the probe budget is exhausted"
            )
        issued_before = self._bank.probes_issued
        series = self._bank.interleaved(
            (left, right),
            rounds=config.corroboration_rounds,
            interval=config.corroboration_interval,
            start_time=start_time,
        )
        shares = self._pair_decision(series, left, right)
        optimizer.charge(self._bank.probes_issued - issued_before)
        return shares, start_time + per_pass * config.corroboration_interval

    def verify_set(
        self, candidate: Iterable[str], start_time: float = 0.0
    ) -> MidarSetVerdict:
        """The full pipeline with transitive-closure pair skipping.

        The base pipeline corroborates *every* velocity-compatible pair; a
        k-member true alias set pays ~k²/2 pair tests where a spanning
        tree of passing tests already proves the partition.  Skipping
        already-connected pairs is partition-invariant (see the class
        docstring), so the verdict is unchanged while large agreeing sets
        drop from quadratic to linear pair cost.
        """
        members = sorted(candidate)[: self._config.max_set_size]
        classes, velocities, now = self.estimate(members, start_time)
        usable = [address for address in members if classes[address] is TargetClass.USABLE]
        if len(usable) < 2:
            return MidarSetVerdict(
                candidate=frozenset(members),
                target_classes=classes,
                testable=False,
                partition=[],
                agrees=False,
                started_at=start_time,
                finished_at=now,
            )
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
        partition = [frozenset(group) for group in union_find.groups()]
        agrees = len(partition) == 1
        return MidarSetVerdict(
            candidate=frozenset(members),
            target_classes=classes,
            testable=True,
            partition=partition,
            agrees=agrees,
            started_at=start_time,
            finished_at=now,
        )


class BudgetedAllyPipeline(AllyPipeline):
    """Ally with staleness-bounded pair reuse and budget enforcement.

    Identical to ``AllyPipeline(reuse=True)`` except that banked pair
    evidence older than the optimizer's staleness bound is re-probed
    instead of reused, and fresh pair tests go through the global budget.
    """

    def __init__(
        self,
        bank: IpidSampleBank,
        rounds: int,
        interval: float,
        max_velocity: float,
        optimizer: ProbeBudgetOptimizer,
    ) -> None:
        super().__init__(
            bank,
            rounds=rounds,
            interval=interval,
            max_velocity=max_velocity,
            reuse=True,
        )
        self._optimizer = optimizer

    def test_pair(self, left: str, right: str, start_time: float = 0.0) -> AllyPairResult:
        requested = 2 * self._rounds
        cached = self._bank.cached_interleaved(
            left,
            right,
            requested_probes=requested,
            now=start_time,
            max_age=self._optimizer.ttl,
        )
        if cached is not None:
            return self._decide(cached, left, right, reused=True)
        if not self._optimizer.request(requested):
            raise ProbeBudgetExhausted(
                f"Ally pair {left}/{right} needs {requested} fresh probes; "
                "the probe budget is exhausted"
            )
        issued_before = self._bank.probes_issued
        series = self._bank.interleaved(
            (left, right),
            rounds=self._rounds,
            interval=self._interval,
            start_time=start_time,
        )
        self._optimizer.charge(self._bank.probes_issued - issued_before)
        return self._decide(series, left, right, reused=False)


# --------------------------------------------------------------------------- #
# The adaptive scheduler
# --------------------------------------------------------------------------- #
def _priority_order(
    members_per_set: Sequence[tuple[str, ...]],
    uncertainty: Sequence[int] | None = None,
) -> list[int]:
    """Candidate-set processing order: largest / most-uncertain first.

    The budget drains over this order like a sliding window — big,
    unknown sets (the most information per probe) spend first, and the
    sorted-members tiebreak keeps the order fully deterministic, which the
    scheduler-determinism property test pins.
    """

    def key(position: int) -> tuple[int, int, tuple[str, ...]]:
        members = members_per_set[position]
        unknown = uncertainty[position] if uncertainty is not None else 0
        return (-len(members), -unknown, members)

    return sorted(range(len(members_per_set)), key=key)


def run_midar_like_budgeted(
    spec: ValidatorSpec,
    candidates: CandidateSets,
    start: float,
    bank: IpidSampleBank,
    config: MidarConfig,
    ipv6_only: bool,
    optimizer: ProbeBudgetOptimizer,
) -> ValidationReport:
    """Run a MIDAR-shaped validator (midar/speedtrap) under the optimizer.

    Candidate sets are processed in priority order but reported in the
    original candidate order, so reports stay comparable set-for-set with
    their non-budgeted counterparts.  A set the budget cannot finish is
    recorded (and reported) as unresolved; its partial probing stays
    banked for later validators.
    """
    pipeline = BudgetedMidarPipeline(bank, config, optimizer)
    members_per_set: list[tuple[str, ...]] = []
    for candidate in candidates:
        members = (
            [address for address in candidate if is_ipv6(address)]
            if ipv6_only
            else list(candidate)
        )
        members_per_set.append(tuple(sorted(members)[: config.max_set_size]))
    cache = optimizer.velocity_cache
    uncertainty = [
        sum(1 for address in members if cache.fresh(address, config, start) is None)
        for members in members_per_set
    ]
    order = _priority_order(members_per_set, uncertainty)
    validator = display_name(spec)
    verdicts: list[SetVerdict | None] = [None] * len(candidates)
    issued_total, reused_total = bank.probes_issued, bank.probes_reused
    now = start
    for position in order:
        members = members_per_set[position]
        issued_before, reused_before = bank.probes_issued, bank.probes_reused
        try:
            verdict = pipeline.verify_set(members, start_time=now)
        except ProbeBudgetExhausted:
            verdicts[position] = unresolved_verdict(members, now)
            optimizer.record(
                validator,
                frozenset(members),
                "unresolved",
                bank.probes_issued - issued_before,
                bank.probes_reused - reused_before,
            )
            continue
        now = verdict.finished_at
        verdicts[position] = SetVerdict(
            candidate=verdict.candidate,
            testable=verdict.testable,
            agrees=verdict.agrees,
            partition=canonical_partition(verdict.partition),
            classes=tuple(
                sorted(
                    (address, target.value)
                    for address, target in verdict.target_classes.items()
                )
            ),
            started_at=verdict.started_at,
            finished_at=verdict.finished_at,
        )
        issued = bank.probes_issued - issued_before
        optimizer.record(
            validator,
            verdict.candidate,
            "probed" if issued else "cached",
            issued,
            bank.probes_reused - reused_before,
        )
    return ValidationReport(
        validator=validator,
        spec=spec,
        candidates=len(candidates),
        verdicts=tuple(verdict for verdict in verdicts if verdict is not None),
        probes_issued=bank.probes_issued - issued_total,
        probes_reused=bank.probes_reused - reused_total,
        started_at=start,
        finished_at=now,
    )


def run_ally_budgeted(
    spec: ValidatorSpec,
    candidates: CandidateSets,
    start: float,
    bank: IpidSampleBank,
    rounds: int,
    interval: float,
    max_velocity: float,
    max_set_size: int,
    optimizer: ProbeBudgetOptimizer,
) -> ValidationReport:
    """Run the Ally validator under the optimizer (see
    :func:`run_midar_like_budgeted` for the scheduling contract)."""
    pipeline = BudgetedAllyPipeline(
        bank,
        rounds=rounds,
        interval=interval,
        max_velocity=max_velocity,
        optimizer=optimizer,
    )
    members_per_set = [
        tuple(sorted(candidate)[:max_set_size]) for candidate in candidates
    ]
    order = _priority_order(members_per_set)
    validator = display_name(spec)
    verdicts: list[SetVerdict | None] = [None] * len(candidates)
    issued_total, reused_total = bank.probes_issued, bank.probes_reused
    now = start
    for position in order:
        members = members_per_set[position]
        issued_before, reused_before = bank.probes_issued, bank.probes_reused
        try:
            result = pipeline.verify_set(members, start_time=now, max_set_size=max_set_size)
        except ProbeBudgetExhausted:
            verdicts[position] = unresolved_verdict(members, now)
            optimizer.record(
                validator,
                frozenset(members),
                "unresolved",
                bank.probes_issued - issued_before,
                bank.probes_reused - reused_before,
            )
            continue
        now = result.finished_at
        verdicts[position] = SetVerdict(
            candidate=frozenset(result.members),
            testable=result.testable,
            agrees=result.agrees,
            partition=canonical_partition(result.partition),
            started_at=result.started_at,
            finished_at=result.finished_at,
        )
        issued = bank.probes_issued - issued_before
        optimizer.record(
            validator,
            frozenset(result.members),
            "probed" if issued else "cached",
            issued,
            bank.probes_reused - reused_before,
        )
    return ValidationReport(
        validator=validator,
        spec=spec,
        candidates=len(candidates),
        verdicts=tuple(verdict for verdict in verdicts if verdict is not None),
        probes_issued=bank.probes_issued - issued_total,
        probes_reused=bank.probes_reused - reused_total,
        started_at=start,
        finished_at=now,
    )


# --------------------------------------------------------------------------- #
# Consensus: N techniques, one bank, per-set majority/conflict report
# --------------------------------------------------------------------------- #
def consensus_report(
    spec: ValidatorSpec,
    reports: Sequence[ValidationReport],
    candidates: CandidateSets,
    start: float,
) -> ValidationReport:
    """Fold N per-technique reports over one candidate list into one verdict.

    Per candidate set, every technique casts a vote (``agree`` /
    ``disagree``) or abstains (``untestable`` / ``unresolved``); the
    consensus agrees when a strict majority of cast votes agree.  The
    per-technique outcomes ride each verdict's ``classes`` as
    ``("<position>:<validator>", outcome)`` pairs — the paper's
    "techniques disagree" discussion as a first-class output, parsed back
    by :func:`consensus_breakdown`.
    """
    for report in reports:
        if len(report.verdicts) != len(candidates):
            raise ValidationError(
                f"consensus input {report.validator!r} produced "
                f"{len(report.verdicts)} verdicts for {len(candidates)} candidates"
            )
    names = [f"{position}:{report.validator}" for position, report in enumerate(reports)]
    verdicts: list[SetVerdict] = []
    for index, candidate in enumerate(candidates):
        outcomes: list[tuple[str, str]] = []
        agree_votes = 0
        disagree_votes = 0
        agree_partition: tuple[frozenset[str], ...] | None = None
        disagree_partition: tuple[frozenset[str], ...] | None = None
        for name, report in zip(names, reports):
            verdict = report.verdicts[index]
            if is_unresolved(verdict):
                outcomes.append((name, UNRESOLVED_LABEL))
            elif not verdict.testable:
                outcomes.append((name, "untestable"))
            elif verdict.agrees:
                agree_votes += 1
                if agree_partition is None:
                    agree_partition = verdict.partition
                outcomes.append((name, "agree"))
            else:
                disagree_votes += 1
                if disagree_partition is None:
                    disagree_partition = verdict.partition
                outcomes.append((name, "disagree"))
        testable = (agree_votes + disagree_votes) > 0
        agrees = testable and agree_votes > disagree_votes
        if agrees and agree_partition is not None:
            partition = agree_partition
        elif disagree_partition is not None:
            partition = disagree_partition
        elif agree_partition is not None:
            partition = agree_partition
        else:
            partition = ()
        verdicts.append(
            SetVerdict(
                candidate=frozenset(candidate),
                testable=testable,
                agrees=agrees,
                partition=partition,
                classes=tuple(outcomes),
                started_at=min(report.verdicts[index].started_at for report in reports),
                finished_at=max(report.verdicts[index].finished_at for report in reports),
            )
        )
    return ValidationReport(
        validator=display_name(spec),
        spec=spec,
        candidates=len(candidates),
        verdicts=tuple(verdicts),
        probes_issued=sum(report.probes_issued for report in reports),
        probes_reused=sum(report.probes_reused for report in reports),
        started_at=start,
        finished_at=max((report.finished_at for report in reports), default=start),
    )


@dataclasses.dataclass(frozen=True)
class ConsensusSetBreakdown:
    """One candidate set's per-technique consensus outcomes."""

    candidate: frozenset[str]
    outcomes: tuple[tuple[str, str], ...]
    agree_votes: int
    disagree_votes: int

    @property
    def conflict(self) -> bool:
        """Whether the techniques cast opposing votes on this set."""
        return self.agree_votes > 0 and self.disagree_votes > 0


def consensus_breakdown(report: ValidationReport) -> tuple[ConsensusSetBreakdown, ...]:
    """Parse a consensus report's per-technique outcomes back out.

    Raises:
        ValidationError: when the report's verdicts do not carry consensus
            outcome labels (i.e. it is not a consensus report).
    """
    rows: list[ConsensusSetBreakdown] = []
    for verdict in report.verdicts:
        if not verdict.classes or not all(
            label in CONSENSUS_OUTCOMES for _, label in verdict.classes
        ):
            raise ValidationError(
                f"report {report.validator!r} does not carry consensus outcomes"
            )
        rows.append(
            ConsensusSetBreakdown(
                candidate=verdict.candidate,
                outcomes=verdict.classes,
                agree_votes=sum(1 for _, label in verdict.classes if label == "agree"),
                disagree_votes=sum(
                    1 for _, label in verdict.classes if label == "disagree"
                ),
            )
        )
    return tuple(rows)


# --------------------------------------------------------------------------- #
# The budgeted run entry point
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class BudgetedValidation:
    """One validator's report inside a budgeted run."""

    name: str
    report: ValidationReport

    @property
    def unresolved(self) -> tuple[frozenset[str], ...]:
        """Candidate sets the budget left unprobed, in candidate order."""
        return tuple(
            verdict.candidate for verdict in self.report.verdicts if is_unresolved(verdict)
        )


@dataclasses.dataclass(frozen=True)
class BudgetRunResult:
    """Everything one :func:`run_budgeted` call produced.

    ``outcomes`` is the per-set spend accounting in actual spend order —
    the scheduler's priority order across validators — which is what the
    scheduler-determinism property test compares between runs.
    """

    validations: tuple[BudgetedValidation, ...]
    limit: int | None
    spent: int
    closed: bool
    outcomes: tuple[SetOutcome, ...]

    @property
    def reports(self) -> tuple[ValidationReport, ...]:
        """The per-validator reports, in request order."""
        return tuple(validation.report for validation in self.validations)

    @property
    def unresolved_count(self) -> int:
        """Candidate sets left unresolved across every validator."""
        return sum(len(validation.unresolved) for validation in self.validations)


def run_budgeted(
    run: "ValidationRun",
    validators: Sequence[str | ValidatorSpec],
    budget: int | None = None,
    velocity_ttl: float = DEFAULT_VELOCITY_TTL,
) -> BudgetRunResult:
    """Run validators under one shared optimizer and global probe budget.

    The optimizer attaches to ``run`` for the duration: bank-based
    validators (midar, speedtrap, ally) route through the budgeted
    pipelines, iffinder charges its per-member probes against the same
    budget, and PTR — DNS lookups, not network probes — runs unbudgeted.
    ``budget=None`` optimizes without a cap (the configuration whose
    verdicts ``bench_budget.py`` holds to parity with the non-optimized
    pipelines); a capped run reports unaffordable sets as unresolved and
    never flips a resolved verdict relative to the uncapped run.
    """
    from repro.validation.runner import run_validator

    optimizer = ProbeBudgetOptimizer(budget=budget, velocity_ttl=velocity_ttl)
    previous = run.optimizer
    run.optimizer = optimizer
    validations: list[BudgetedValidation] = []
    try:
        for validator in validators:
            spec = (
                validator
                if isinstance(validator, ValidatorSpec)
                else VALIDATORS.get(validator)
            )
            name = validator if isinstance(validator, str) else display_name(spec)
            report = run_validator(run, spec)
            validations.append(BudgetedValidation(name=name, report=report))
    finally:
        run.optimizer = previous
    return BudgetRunResult(
        validations=tuple(validations),
        limit=optimizer.budget.limit,
        spent=optimizer.budget.spent,
        closed=optimizer.budget.closed,
        outcomes=tuple(optimizer.outcomes),
    )
