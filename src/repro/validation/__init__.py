"""The registry-driven validation subsystem.

The paper's headline claim rests on validation: SSH/SNMP-derived alias
sets checked against MIDAR-style IPID corroboration (Table 2) and the
longitudinal MIDAR-disagreement mechanism.  This package gives the
validation layer the same declarative treatment sources and experiments
already have:

* :mod:`repro.validation.spec` — frozen/hashable :class:`ValidatorSpec`
  trees, the ``validator_kind``/``register_validator`` registries, and the
  ``sample`` combinator.
* :mod:`repro.validation.bank` — the shared :class:`IpidSampleBank`:
  the IPID time series validators collect, shared across them so
  composed validations cut probe counts.  It is the one cache of IPID
  evidence, with one read per kind: the canonical estimation series of
  an (address, schedule shape), and the pair map.
* :mod:`repro.validation.techniques` — the MIDAR and Ally pipelines over
  a bank, one pair test in one corroboration loop, each returning one
  :class:`SetVerdict` per set (Speedtrap is MIDAR over IPv6 members, the
  ``speedtrap`` kind).
* :mod:`repro.validation.runner` — builders for the built-in kinds
  (midar, ally, speedtrap, sample), the one largest-first scheduler the
  IPID kinds share, the :class:`ValidationRun` harness with its one bank
  of :data:`VALIDATION_VANTAGE` and its :class:`ProbeBudget`, and the
  registered named compositions.
* :mod:`repro.validation.report` — per-set verdicts and the
  :class:`ValidationReport` aggregates (testable coverage, agreement).
* :mod:`repro.validation.longitudinal` — per-snapshot validation of a
  churning campaign (the paper's MIDAR-disagreement series).
* :mod:`repro.validation.budget` — the global :class:`ProbeBudget`
  every validation spends from, and :func:`run_budgeted`.

There is one validation path.  ``ReproSession.validate(spec_or_name)``
(cached, persisted by :mod:`repro.persist`) spends from a fresh uncapped
budget; ``ReproSession.validate_budgeted(..., budget=N)`` runs several
validators under one budget with an optional cap.  Uncapped,
``validate_budgeted([a, b])`` reports ``b`` exactly as ``validate(a)``
followed by ``validate(b)`` does.  The ``repro validate`` CLI subcommand
exposes both (``--budget N``).
"""

from repro.validation.bank import IpidSampleBank
from repro.validation.budget import (
    DEFAULT_VELOCITY_TTL,
    BudgetedValidation,
    BudgetRunResult,
    ProbeBudget,
    ProbeBudgetExhausted,
    is_unresolved,
    run_budgeted,
    unresolved_verdict,
)
from repro.validation.longitudinal import SnapshotValidation, validate_snapshots
from repro.validation.report import CandidateSets, SetVerdict, ValidationReport
from repro.validation.runner import (
    VALIDATION_VANTAGE,
    ValidationRun,
    candidate_sets,
    run_validator,
    table2_midar_spec,
)
from repro.validation.spec import (
    VALIDATOR_KINDS,
    VALIDATORS,
    ValidatorSpec,
    ally,
    display_name,
    midar,
    named_validator,
    register_validator,
    sample,
    speedtrap,
    validator_kind,
)
from repro.validation.techniques import AllyPipeline, MidarConfig, MidarPipeline

__all__ = [
    "AllyPipeline",
    "BudgetRunResult",
    "BudgetedValidation",
    "CandidateSets",
    "DEFAULT_VELOCITY_TTL",
    "IpidSampleBank",
    "MidarConfig",
    "MidarPipeline",
    "ProbeBudget",
    "ProbeBudgetExhausted",
    "SetVerdict",
    "SnapshotValidation",
    "ValidationReport",
    "ValidationRun",
    "VALIDATION_VANTAGE",
    "ValidatorSpec",
    "VALIDATOR_KINDS",
    "VALIDATORS",
    "ally",
    "candidate_sets",
    "display_name",
    "is_unresolved",
    "midar",
    "named_validator",
    "register_validator",
    "run_budgeted",
    "run_validator",
    "sample",
    "speedtrap",
    "table2_midar_spec",
    "unresolved_verdict",
    "validate_snapshots",
    "validator_kind",
]
