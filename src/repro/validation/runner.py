"""Validator builders and the run harness.

:func:`run_validator` resolves a :class:`~repro.validation.spec.
ValidatorSpec` tree against a :class:`ValidationRun` — the shared state a
validation probes through: a network, the one
:class:`~repro.validation.bank.IpidSampleBank` of
:data:`VALIDATION_VANTAGE` (shared across every validator of the run,
which is what makes composed validations cheap), and optionally a session
for candidate derivation.  The paper validates from one vantage with one
MIDAR configuration, so each built-in kind takes only the parameters in
:data:`KIND_PARAMETERS`, and a spec that carries any other fails before
any work.

Candidate alias sets flow *down* the spec tree: the ``sample`` combinator
draws from them and delegates to its input; technique leaves derive them
from the session's resolved report when no enclosing combinator supplied
any.  The start time flows the same way, so the longitudinal path can
re-run one spec per snapshot at per-snapshot times.

Every spec tree spends from the run's
:class:`~repro.validation.budget.ProbeBudget`, a fresh uncapped one unless
the caller attached one (see :func:`~repro.validation.budget.
run_budgeted`).  The IPID kinds share one scheduler,
:func:`_run_scheduled`: candidate sets are verified largest first, a set
the budget cannot finish is reported unresolved, and the report lists
verdicts in candidate order.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Callable, Sequence

from repro import obs
from repro.core.engine import AliasReport
from repro.errors import ValidationError
from repro.net.addresses import is_ipv6
from repro.simnet.device import ServiceType
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.validation.bank import IpidSampleBank
from repro.validation.budget import ProbeBudget, ProbeBudgetExhausted, unresolved_verdict
from repro.validation.report import CandidateSets, SetVerdict, ValidationReport
from repro.validation.spec import (
    VALIDATOR_KINDS,
    ValidatorSpec,
    ally,
    display_name,
    midar,
    register_validator,
    sample,
    speedtrap,
    validator_kind,
)
from repro.validation.techniques import (
    ALLY_MAX_SET_SIZE,
    MIDAR_MAX_SET_SIZE,
    AllyPipeline,
    MidarConfig,
    MidarPipeline,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.api.session import ReproSession

#: The vantage point every validation probes from, as the paper's Table 2
#: MIDAR run did; one vantage is what lets validators share one bank.
VALIDATION_VANTAGE = VantagePoint(name="midar-vp", address="192.0.2.251")

#: The parameters each built-in kind reads: a technique's select its
#: candidate sets and when probing starts, and ``sample``'s draw the
#: sample.  :func:`run_validator` rejects any other on these kinds.
_LEAF_PARAMETERS = frozenset({"source", "protocol", "family", "start_after"})
KIND_PARAMETERS: dict[str, frozenset[str]] = {
    "midar": _LEAF_PARAMETERS,
    "speedtrap": _LEAF_PARAMETERS,
    "ally": _LEAF_PARAMETERS,
    "sample": frozenset({"size", "seed", "max_size"}),
}

#: Speedtrap's schedule: MIDAR's, with a shorter estimation and
#: corroboration, over a set's IPv6 members only.
SPEEDTRAP_CONFIG = MidarConfig(estimation_samples=6, corroboration_rounds=5)

#: How long after the ``start_after`` dataset's last observation probing
#: starts.
_START_LAG = 3600.0


class ValidationRun:
    """Shared probing state for one or more validator executions.

    A session owns one run (``session.validation_run``) so successive
    ``session.validate(...)`` calls share the bank; the longitudinal path
    builds one per campaign.  ``session`` may be ``None`` — then every
    spec must be given explicit candidates and start times.  ``network``
    may be ``None`` when a session is given: the run then probes the
    session's network, read at the first bank miss (see :attr:`network`).
    """

    def __init__(
        self,
        network: SimulatedInternet | None = None,
        session: "ReproSession | None" = None,
    ) -> None:
        if network is None and session is None:
            raise ValidationError("a validation run needs a network or a session")
        self._network = network
        self.session = session
        self._bank: IpidSampleBank | None = None
        #: The budget every validator spends from; set for the span of one
        #: :func:`run_validator` call (or a
        #: :func:`repro.validation.budget.run_budgeted` run).
        self.budget: ProbeBudget | None = None

    @property
    def network(self) -> SimulatedInternet:
        """The network the bank probes on a miss.

        The one the run was built with, else the session's, read when the
        bank first misses: a run whose bank answers every read from
        restored samples never builds the session's topology.
        """
        if self._network is None:
            self._network = self.session.network
        return self._network

    def bank(self) -> IpidSampleBank:
        """The run's sample bank, of :data:`VALIDATION_VANTAGE` (built once)."""
        if self._bank is None:
            self._bank = IpidSampleBank(None, VALIDATION_VANTAGE).bind(lambda: self.network)
        return self._bank

    def banks(self) -> dict[VantagePoint, IpidSampleBank]:
        """The bank once built, keyed by its vantage (at most one entry).

        The probe-accounting surface: summing ``probes_issued`` /
        ``probes_reused`` over the values gives the run's total spend, the
        same totals the obs layer's ``validation.probes`` counters carry.
        """
        return {} if self._bank is None else {VALIDATION_VANTAGE: self._bank}

    def restore_bank(self, bank: IpidSampleBank) -> IpidSampleBank:
        """Install a restored bank of :data:`VALIDATION_VANTAGE` as the run's.

        ``bank`` comes from :meth:`IpidSampleBank.from_state` and is bound
        here to this run's :attr:`network`, which it reads at its first
        miss.  It carries every banked series, pair and canonical
        estimation entry of the saved run, so a reloaded session re-scores
        matching validation specs fully offline — zero network probes and
        no topology built.

        Raises:
            ValidationError: when ``bank`` probed from another vantage.
        """
        if bank.vantage != VALIDATION_VANTAGE:
            raise ValidationError(
                f"a bank of vantage {bank.vantage.name!r} is not this run's "
                f"({VALIDATION_VANTAGE.name!r})"
            )
        self._bank = bank.bind(lambda: self.network)
        return bank

    def derived_start(self, after: str) -> float:
        """When probing starts after dataset ``after``: one hour after its
        last observation (0 for an empty dataset).

        The session caches the dataset, so validators that start after it
        land on the same float and their collections hit one bank key.
        """
        if self.session is None:
            raise ValidationError(
                f"deriving a start time from dataset {after!r} needs a session"
            )
        timestamps = [observation.timestamp for observation in self.session.dataset(after)]
        return max(timestamps) + _START_LAG if timestamps else 0.0


def run_validator(
    run: ValidationRun,
    spec: ValidatorSpec,
    candidates: CandidateSets | None = None,
    start_time: float | None = None,
) -> ValidationReport:
    """Execute one validator spec tree and return its report.

    With no budget attached to ``run``, the spec tree spends from a fresh
    uncapped :class:`~repro.validation.budget.ProbeBudget`, shared by every
    validator inside it and detached afterwards.

    Raises:
        RegistryError: when a kind in the tree is not registered.
        ValidationError: when a built-in kind in the tree carries a
            parameter it does not take (see :data:`KIND_PARAMETERS`).
    """
    builder = VALIDATOR_KINDS.get(spec.kind)
    # A combinator derives its candidate sets (collecting and resolving a
    # source) before it runs its input, so check every spec in the tree
    # first: an unregistered kind or an unknown parameter fails before any
    # of that work.
    pending = [spec]
    while pending:
        inner = pending.pop()
        VALIDATOR_KINDS.get(inner.kind)
        accepted = KIND_PARAMETERS.get(inner.kind)
        unknown = [key for key, _ in inner.params if accepted is not None and key not in accepted]
        if unknown:
            raise ValidationError(
                f"validator kind {inner.kind!r} takes no parameter "
                + ", ".join(repr(key) for key in unknown)
                + f" (it takes {', '.join(sorted(accepted))})"
            )
        pending.extend(inner.inputs)
    with obs.span("validator.run", kind=spec.kind):
        if run.budget is not None:
            return builder(run, spec, candidates, start_time)
        run.budget = ProbeBudget()
        try:
            return builder(run, spec, candidates, start_time)
        finally:
            run.budget = None


# --------------------------------------------------------------------------- #
# Candidate and schedule derivation
# --------------------------------------------------------------------------- #
def candidate_sets(report: AliasReport, spec: ValidatorSpec) -> CandidateSets:
    """The index-derived candidate sets a (leaf) spec asks for.

    Reads ``protocol`` (ssh/bgp/snmpv3/union, default ssh) and ``family``
    (ipv4/ipv6, default ipv4) from the spec and returns the non-singleton
    sets of the matching collection, in collection order.
    """
    family = str(spec.param("family", "ipv4"))
    protocol = str(spec.param("protocol", "ssh"))
    if family == "ipv4":
        collections, union = report.ipv4, report.ipv4_union
    elif family == "ipv6":
        collections, union = report.ipv6, report.ipv6_union
    else:
        raise ValidationError(f"unknown address family {family!r} (use ipv4 or ipv6)")
    if protocol == "union":
        collection = union
    else:
        try:
            collection = collections[ServiceType(protocol)]
        except ValueError:
            raise ValidationError(
                f"unknown protocol {protocol!r} (use ssh, bgp, snmpv3 or union)"
            ) from None
    return tuple(alias_set.addresses for alias_set in collection.non_singleton())


def _derive_candidates(run: ValidationRun, spec: ValidatorSpec) -> CandidateSets:
    """Candidates of a leaf spec, resolved through the run's session."""
    leaf = spec.leaf()
    if run.session is None:
        raise ValidationError(
            f"validator {spec.describe()} needs a session to derive candidate "
            "sets; pass candidates explicitly"
        )
    source = str(leaf.param("source", "active"))
    return candidate_sets(run.session.report(source), leaf)


def _derive_start(run: ValidationRun, spec: ValidatorSpec) -> float:
    """When probing starts: dataset-relative, or zero.

    ``start_after`` names a dataset, and the run starts one hour after its
    last observation — how Table 2 schedules the MIDAR run right after the
    active campaign.
    """
    after = spec.param("start_after")
    if after is None:
        return 0.0
    if run.session is None:
        raise ValidationError(
            f"validator {spec.describe()} derives its start time from dataset "
            f"{after!r}, which needs a session; pass start_time explicitly"
        )
    return run.derived_start(str(after))


# --------------------------------------------------------------------------- #
# IPID technique kinds (MIDAR / Speedtrap / Ally)
# --------------------------------------------------------------------------- #
def _run_scheduled(
    run: ValidationRun,
    spec: ValidatorSpec,
    start: float,
    members_per_set: Sequence[tuple[str, ...]],
    verify: Callable[[tuple[str, ...], float], SetVerdict],
) -> ValidationReport:
    """Verify each candidate set's members under the run's budget.

    Sets are verified largest first, then by sorted members, so the budget
    drains over big sets (the most information per probe) first and the
    order is fully deterministic.  They are reported in candidate order,
    so reports stay comparable set-for-set whatever the budget.  A set the
    budget cannot finish is reported unresolved; its partial probing stays
    banked for later validators.  The ``validation.budget`` counter counts
    sets per outcome: ``probed`` (fresh probes spent), ``cached`` (answered
    entirely from the bank) and ``unresolved``.
    """
    bank = run.bank()
    validator = display_name(spec)
    verdicts: list[SetVerdict | None] = [None] * len(members_per_set)
    issued_total, reused_total = bank.probes_issued, bank.probes_reused
    now = start
    order = sorted(
        range(len(members_per_set)),
        key=lambda position: (-len(members_per_set[position]), members_per_set[position]),
    )
    for position in order:
        members = members_per_set[position]
        issued_before = bank.probes_issued
        try:
            verdict = verify(members, now)
        except ProbeBudgetExhausted:
            verdict = unresolved_verdict(members, now)
            outcome = "unresolved"
        else:
            now = verdict.finished_at
            outcome = "probed" if bank.probes_issued > issued_before else "cached"
        verdicts[position] = verdict
        if obs.is_enabled():
            obs.add("validation.budget", 1, outcome=outcome, validator=validator)
    return ValidationReport(
        validator=validator,
        spec=spec,
        candidates=len(members_per_set),
        verdicts=tuple(verdict for verdict in verdicts if verdict is not None),
        probes_issued=bank.probes_issued - issued_total,
        probes_reused=bank.probes_reused - reused_total,
        started_at=start,
        finished_at=now,
    )


def _run_midar_like(
    run: ValidationRun,
    spec: ValidatorSpec,
    candidates: CandidateSets | None,
    start_time: float | None,
    config: MidarConfig,
    ipv6_only: bool,
) -> ValidationReport:
    if candidates is None:
        candidates = _derive_candidates(run, spec)
    start = start_time if start_time is not None else _derive_start(run, spec)
    pipeline = MidarPipeline(run.bank(), config, run.budget)
    members_per_set = []
    for candidate in candidates:
        members = [address for address in candidate if is_ipv6(address)] if ipv6_only else candidate
        members_per_set.append(tuple(sorted(members)[:MIDAR_MAX_SET_SIZE]))
    return _run_scheduled(run, spec, start, members_per_set, pipeline.verify_set)


@validator_kind("midar", "MIDAR estimation → elimination → corroboration per candidate set")
def _build_midar(run, spec, candidates, start_time):
    return _run_midar_like(run, spec, candidates, start_time, MidarConfig(), ipv6_only=False)


@validator_kind("speedtrap", "Speedtrap-style IPv6 fragment-ID verification (IPv6 members only)")
def _build_speedtrap(run, spec, candidates, start_time):
    return _run_midar_like(run, spec, candidates, start_time, SPEEDTRAP_CONFIG, ipv6_only=True)


@validator_kind("ally", "pairwise Ally tests per candidate set (reuses banked IPID series)")
def _build_ally(run, spec, candidates, start_time):
    if candidates is None:
        candidates = _derive_candidates(run, spec)
    start = start_time if start_time is not None else _derive_start(run, spec)
    pipeline = AllyPipeline(run.bank(), run.budget)
    members_per_set = [tuple(sorted(candidate)[:ALLY_MAX_SET_SIZE]) for candidate in candidates]
    return _run_scheduled(run, spec, start, members_per_set, pipeline.verify_set)


# --------------------------------------------------------------------------- #
# The sample combinator
# --------------------------------------------------------------------------- #
@validator_kind("sample", "validate a seeded random sample of the candidate sets")
def _build_sample(run, spec, candidates, start_time):
    if len(spec.inputs) != 1:
        raise ValidationError(
            f"validator combinator 'sample' takes exactly one input "
            f"(got {len(spec.inputs)})"
        )
    inner = spec.inputs[0]
    base = candidates if candidates is not None else _derive_candidates(run, spec)
    max_size = spec.param("max_size")
    filtered = [
        candidate
        for candidate in base
        if max_size is None or len(candidate) <= int(max_size)
    ]
    size = int(spec.param("size", 150))
    rng = random.Random(int(spec.param("seed", 7)))
    chosen = rng.sample(filtered, min(size, len(filtered)))
    report = run_validator(run, inner, candidates=tuple(chosen), start_time=start_time)
    return dataclasses.replace(report, spec=spec, validator=display_name(spec))


# --------------------------------------------------------------------------- #
# Named validators: the paper's validation compositions
# --------------------------------------------------------------------------- #
def table2_midar_spec(size: int = 150, seed: int = 7) -> ValidatorSpec:
    """The Table 2 MIDAR composition: sampled SSH IPv4 sets, probed after
    the active campaign."""
    return sample(
        midar(source="active", protocol="ssh", family="ipv4", start_after="active-ipv6"),
        size=size,
        seed=seed,
        max_size=10,
    )


#: MIDAR over sampled SSH sets — exactly what the Table 2 experiment runs.
MIDAR_SSH_SAMPLE = table2_midar_spec()
#: Ally over the same sample; with the bank warm from a MIDAR run it
#: decides most pairs from banked series instead of probing.
ALLY_SSH_SAMPLE = sample(
    ally(source="active", protocol="ssh", family="ipv4", start_after="active-ipv6"),
    size=150,
    seed=7,
    max_size=10,
)
#: Speedtrap over sampled IPv6 union sets (the leaf drops IPv4 members).
SPEEDTRAP_UNION_SAMPLE = sample(
    speedtrap(source="active", protocol="union", family="ipv6", start_after="active-ipv6"),
    size=150,
    seed=7,
    max_size=10,
)

register_validator(
    "midar", MIDAR_SSH_SAMPLE, "MIDAR over sampled SSH IPv4 sets (the Table 2 validation)"
)
register_validator(
    "ally", ALLY_SSH_SAMPLE, "Ally over the same SSH sample, reusing the shared IPID bank"
)
register_validator(
    "speedtrap", SPEEDTRAP_UNION_SAMPLE, "Speedtrap over sampled IPv6 union sets"
)
