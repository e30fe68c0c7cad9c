"""The probe-budget optimizer every IPID validation probes through.

The paper's central cost at Internet scale is probes, not CPU: MIDAR-style
IPID estimation dominates the probe count.  The MIDAR, Ally and Speedtrap
pipelines of :mod:`repro.validation.techniques` therefore all run under a
:class:`ProbeBudgetOptimizer`.  :func:`~repro.validation.runner.
run_validator` attaches a fresh uncapped one when the caller attached
none, so ``session.validate``, Table 2 and ``repro validate`` probe
exactly as an uncapped :func:`run_budgeted` call does.  The optimizer
holds the state those pipelines share:

* **Velocity cache** — :class:`VelocityCache` memoises each address's
  estimation verdict (target class + counter velocity) with a
  simulated-time staleness bound, :data:`DEFAULT_VELOCITY_TTL`: a
  candidate set whose member velocities are fresh is re-scored without
  re-probing, while an expired entry always falls back to live probing.
  The same bound limits how old banked estimation and pair evidence may
  be, which keeps longitudinal validation honest across churn.
* **Probe budget** — :class:`ProbeBudget` is a global fresh-probe
  allowance spent across candidate sets in priority order (largest /
  most-uncertain first).  Once a request is denied the budget *closes*:
  no further fresh probes are issued at all, so a capped run's fresh-probe
  sequence is an exact prefix of the uncapped run's.  Sets the budget
  cannot afford are reported ``unresolved`` — never mis-verdicted — and
  sets answerable entirely from the bank still resolve for free.
* **Spend accounting** — :class:`SetOutcome` records, per candidate set
  and in spend order, whether it was probed, answered from the bank, or
  left unresolved.

Entry point: :func:`run_budgeted` (also behind
``ReproSession.validate_budgeted`` and ``repro validate --budget N``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.baselines.ipid import IpidTimeSeries, TargetClass, classify_series
from repro.errors import ValidationError
from repro.validation.report import SetVerdict, ValidationReport
from repro.validation.spec import VALIDATORS, ValidatorSpec, display_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.validation.runner import ValidationRun
    from repro.validation.techniques import MidarConfig

#: Default staleness bound of the velocity cache, in simulated seconds.
#: One day: far longer than any single validation run, far shorter than
#: the week-scale longitudinal intervals, so within-run re-scoring is free
#: while cross-snapshot reuse always re-probes.
DEFAULT_VELOCITY_TTL = 86_400.0

#: Per-address class label marking a candidate set the budget left unprobed.
UNRESOLVED_LABEL = "unresolved"


class ProbeBudgetExhausted(ValidationError):
    """Raised inside the IPID pipelines when a fresh-probe request is denied.

    Internal control flow: the runner's scheduler catches it per candidate
    set and records the set as unresolved.  It only escapes when a
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
    served only while fresh (``|now - observed_at| <=``
    :data:`DEFAULT_VELOCITY_TTL`); expired entries are replaced by live
    re-estimation, never silently reused.
    """

    def __init__(self) -> None:
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
        return abs(now - entry.observed_at) <= DEFAULT_VELOCITY_TTL

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
    """Shared optimisation state a validation run probes through.

    Attach one to a :class:`~repro.validation.runner.ValidationRun`
    (``run.optimizer = ...`` — :func:`run_budgeted` does this for you) and
    every validator the run executes shares its velocity cache and spends
    from its global :class:`ProbeBudget`.  ``budget=None`` optimizes
    without a cap.
    """

    def __init__(self, budget: int | None = None) -> None:
        self.budget = ProbeBudget(limit=budget)
        self.velocity_cache = VelocityCache()
        self.outcomes: list[SetOutcome] = []

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
) -> BudgetRunResult:
    """Run validators under one shared optimizer and global probe budget.

    The optimizer attaches to ``run`` for the duration, so every validator
    (midar, speedtrap, ally) spends from the same budget.  ``budget=None``
    optimizes without a cap; a capped run reports unaffordable sets as
    unresolved and never flips a resolved verdict relative to the uncapped
    run.
    """
    from repro.validation.runner import run_validator

    optimizer = ProbeBudgetOptimizer(budget=budget)
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
