"""The probe budget every IPID validation spends from.

The paper's central cost at Internet scale is probes, not CPU: MIDAR-style
IPID estimation dominates the probe count.  A validation run
(:class:`~repro.validation.runner.ValidationRun`) therefore holds two
things: its sample bank (:class:`~repro.validation.bank.IpidSampleBank`),
the one store and the one reuse of IPID evidence, and a
:class:`ProbeBudget`, the one spend limit.  The MIDAR, Ally and Speedtrap
pipelines of :mod:`repro.validation.techniques` request every fresh
collection from the budget and charge it what they issued.
:func:`~repro.validation.runner.run_validator` attaches a fresh uncapped
budget when the caller attached none, so ``session.validate``, Table 2 and
``repro validate`` probe exactly as an uncapped :func:`run_budgeted` call
does.

The budget is spent over each validator's candidate sets largest first.
Once a request is denied the budget *closes*: no further fresh
probes are issued at all, so a capped run's fresh-probe sequence is an
exact prefix of the uncapped run's.  Sets the budget cannot afford are
reported ``unresolved`` — never mis-verdicted — and sets answerable
entirely from the bank still resolve for free.

Entry point: :func:`run_budgeted` (also behind
``ReproSession.validate_budgeted`` and ``repro validate --budget N``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ValidationError
from repro.validation.report import SetVerdict, ValidationReport
from repro.validation.spec import VALIDATORS, ValidatorSpec, display_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.validation.runner import ValidationRun

#: How old banked IPID evidence may be when read, in simulated seconds.
#: One day: longer than any single validation run, so validators that
#: share a run re-read each other's samples, and far shorter than the
#: default week-long campaign interval, so each snapshot of such a
#: campaign re-probes.
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
    """Everything one :func:`run_budgeted` call produced."""

    validations: tuple[BudgetedValidation, ...]
    limit: int | None
    spent: int
    closed: bool

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
    """Run validators in order under one global probe budget.

    ``ProbeBudget(limit=budget)`` attaches to ``run`` for the duration, so
    every validator (midar, speedtrap, ally) spends from it, and the
    previously attached budget is restored afterwards.  ``budget=None`` is
    uncapped: each report then equals the one :func:`~repro.validation.
    runner.run_validator` gives when the validators run one after another
    on ``run``.  A capped run reports unaffordable sets as unresolved and
    never flips a resolved verdict relative to the uncapped run.
    """
    from repro.validation.runner import run_validator

    spend = ProbeBudget(limit=budget)
    previous = run.budget
    run.budget = spend
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
        run.budget = previous
    return BudgetRunResult(
        validations=tuple(validations),
        limit=spend.limit,
        spent=spend.spent,
        closed=spend.closed,
    )
