"""Validation reports: per-set verdicts and their aggregates.

Every validator kind — whatever its technique — reduces to the same
question the paper's Table 2 asks: *given candidate alias sets derived
from the identifier index, does the independent technique keep each set
together?*  A :class:`ValidationReport` therefore records one
:class:`SetVerdict` per candidate plus the aggregates the paper reports:
testable coverage (the "only 13% testable" figure) and agreement among the
testable sets, along with the probe accounting that makes bank sharing
measurable.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.validation.spec import ValidatorSpec

#: Candidate alias sets, as address sets in collection order.
CandidateSets = tuple[frozenset[str], ...]


def canonical_partition(groups: Iterable[Iterable[str]]) -> tuple[frozenset[str], ...]:
    """Partition groups in a deterministic order (by sorted members)."""
    return tuple(sorted((frozenset(group) for group in groups), key=sorted))


@dataclasses.dataclass(frozen=True)
class SetVerdict:
    """One validator's verdict on one candidate alias set.

    Attributes:
        candidate: the members the technique examined (possibly truncated
            or family-filtered relative to the original candidate).
        testable: whether the technique could gather evidence at all
            (e.g. ≥2 usable IPID counters).
        agrees: whether the evidence keeps the candidate in one group.
        partition: the groups the technique formed over the members it
            could test, in canonical order.
        classes: optional per-address diagnostic labels (MIDAR target
            classes), as sorted (address, label) pairs.
        started_at / finished_at: simulation-time window of the probing.
    """

    candidate: frozenset[str]
    testable: bool
    agrees: bool
    partition: tuple[frozenset[str], ...]
    classes: tuple[tuple[str, str], ...] = ()
    started_at: float = 0.0
    finished_at: float = 0.0


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Everything one validation produced.

    Attributes:
        validator: display name (registered name, label, or kind).
        spec: the declarative spec the report was built from.
        candidates: number of candidate sets examined (after sampling).
        verdicts: one :class:`SetVerdict` per candidate, in order.
        probes_issued: network probes this validation sent.
        probes_reused: probes answered from the shared sample bank.
        started_at / finished_at: simulation-time window of the run.
    """

    validator: str
    spec: ValidatorSpec
    candidates: int
    verdicts: tuple[SetVerdict, ...]
    probes_issued: int
    probes_reused: int
    started_at: float
    finished_at: float

    @property
    def testable_count(self) -> int:
        """Candidate sets the technique could test at all."""
        return sum(1 for verdict in self.verdicts if verdict.testable)

    @property
    def agree_count(self) -> int:
        """Testable sets the technique keeps together."""
        return sum(1 for verdict in self.verdicts if verdict.testable and verdict.agrees)

    @property
    def disagree_count(self) -> int:
        """Testable sets the technique splits."""
        return self.testable_count - self.agree_count

    @property
    def testable_coverage(self) -> float:
        """Fraction of candidate sets that were testable (paper: ~13%)."""
        if not self.candidates:
            return 0.0
        return self.testable_count / self.candidates

    @property
    def agreement_rate(self) -> float:
        """Fraction of testable sets the technique confirms (paper: ~96%)."""
        if not self.testable_count:
            return 0.0
        return self.agree_count / self.testable_count
