"""The device-truth gate on MIDAR, Ally and Speedtrap.

Every testable verdict's partition is scored pair by pair against the
simulated device that owned each address when the verdict's probing
started: a pair on one device in one group is *confirmed*, two devices in
one group a *false merge*, one device in two groups a *false split*.

The rule holds per seed and validator at scale 0.125, after
``session.report("active")``, for the composed run (midar, ally,
speedtrap on one session) and for ally and speedtrap each alone on a
fresh session:

* false merges never exceed, and confirmed pairs never fall below, the
  counts the two-pipeline design (plain beside budgeted) recorded;
* MIDAR's false splits never exceed that design's;
* Ally wrongly splits no device with one shared monotonic counter.  Ally
  has no estimation stage, so it tests sets whose IPIDs are random,
  per-interface or wrap fast, and splits those; a shared counter it must
  keep together.
"""

import dataclasses
import functools
import itertools

import pytest

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.net.ipid import MonotonicIpidCounter


@dataclasses.dataclass(frozen=True)
class TruthScores:
    """Pairwise scores of one validation report against device truth."""

    confirmed: int
    false_merges: int
    false_splits: int
    #: False splits of devices whose IPIDs come from one shared
    #: monotonic counter (exact type: the high-velocity subclass wraps
    #: past MIDAR's velocity bound, so splitting it is no error).
    shared_counter_false_splits: int


def truth_scores(report, network) -> TruthScores:
    """Score every testable verdict's partition against device truth."""
    confirmed = false_merges = false_splits = shared_counter_false_splits = 0
    for verdict in report.verdicts:
        if not verdict.testable:
            continue
        group_of = {
            address: position
            for position, group in enumerate(verdict.partition)
            for address in group
        }
        owner = {
            address: network.device_for(address, verdict.started_at)
            for address in group_of
        }
        for left, right in itertools.combinations(sorted(group_of), 2):
            same_device = owner[left] is not None and owner[left] is owner[right]
            if group_of[left] == group_of[right]:
                if same_device:
                    confirmed += 1
                else:
                    false_merges += 1
            elif same_device:
                false_splits += 1
                if type(owner[left].ipid_counter) is MonotonicIpidCounter:
                    shared_counter_false_splits += 1
    return TruthScores(confirmed, false_merges, false_splits, shared_counter_false_splits)


SCALE = 0.125
VALIDATORS = ("midar", "ally", "speedtrap")

#: (confirmed, false merges, false splits) of the plain pipelines, which
#: decided session.validate, Table 2 and plain ``repro validate`` before
#: the budgeted scheduler became the only path.
BASELINE = {
    (0, "composed"): {"midar": (275, 0, 11), "ally": (311, 0, 129), "speedtrap": (7, 0, 0)},
    (1, "composed"): {"midar": (259, 0, 6), "ally": (299, 2, 102), "speedtrap": (11, 0, 2)},
    (3, "composed"): {"midar": (328, 0, 64), "ally": (420, 0, 160), "speedtrap": (4, 0, 1)},
    (0, "alone"): {"ally": (325, 0, 139), "speedtrap": (8, 0, 0)},
    (1, "alone"): {"ally": (319, 2, 140), "speedtrap": (13, 0, 2)},
    (3, "alone"): {"ally": (483, 0, 195), "speedtrap": (7, 0, 1)},
}

#: Fresh IPID probes of the composed run (the plain pipelines sent
#: 11,378 / 11,256 / 13,828).
COMPOSED_FRESH_PROBES = {0: 5_117, 1: 5_392, 3: 6_676}

CELLS = [
    (seed, run, validator)
    for (seed, run), baseline in BASELINE.items()
    for validator in baseline
]


@functools.lru_cache(maxsize=None)
def _validated(seed: int, validators: tuple[str, ...]):
    session = ReproSession(ScenarioConfig(scale=SCALE, seed=seed))
    session.report("active")
    reports = {validator: session.validate(validator) for validator in validators}
    scores = {
        validator: truth_scores(report, session.network)
        for validator, report in reports.items()
    }
    return reports, scores


def _scores(seed: int, run: str, validator: str) -> TruthScores:
    validators = VALIDATORS if run == "composed" else (validator,)
    return _validated(seed, validators)[1][validator]


@pytest.mark.parametrize(
    "seed,run,validator", CELLS, ids=lambda value: str(value)
)
def test_truth_scores_hold_the_rule(seed, run, validator):
    scores = _scores(seed, run, validator)
    confirmed, false_merges, false_splits = BASELINE[(seed, run)][validator]
    assert scores.false_merges <= false_merges
    assert scores.confirmed >= confirmed
    if validator == "midar":
        assert scores.false_splits <= false_splits
    if validator == "ally":
        assert scores.shared_counter_false_splits == 0


@pytest.mark.parametrize("seed", sorted(COMPOSED_FRESH_PROBES))
def test_composed_run_fresh_probes(seed):
    reports, _ = _validated(seed, VALIDATORS)
    fresh = sum(report.probes_issued for report in reports.values())
    assert fresh == COMPOSED_FRESH_PROBES[seed]


def test_scorer_classifies_every_pair_kind(network):
    """Confirmed, false merge and false split on the hand-built network."""
    from repro.validation.report import SetVerdict, ValidationReport
    from repro.validation.spec import midar

    groups = (
        frozenset({"10.0.1.1", "10.0.1.2"}),  # one shared-counter router
        frozenset({"10.0.1.3", "10.0.2.1"}),  # two routers in one group
        frozenset({"10.0.2.2"}),
        frozenset({"10.0.3.1"}),  # per-interface counters, split
        frozenset({"10.0.3.2"}),
    )
    verdict = SetVerdict(
        candidate=frozenset().union(*groups),
        testable=True,
        agrees=False,
        partition=groups,
        started_at=0.0,
        finished_at=0.0,
    )
    untestable = dataclasses.replace(verdict, testable=False)
    report = ValidationReport(
        validator="midar",
        spec=midar(),
        candidates=2,
        verdicts=(verdict, untestable),
        probes_issued=0,
        probes_reused=0,
        started_at=0.0,
        finished_at=0.0,
    )
    # Splits: 10.0.1.1/.3 and 10.0.1.2/.3 and 10.0.2.1/.2 on shared
    # counters, 10.0.3.1/.2 on per-interface ones.  The untestable
    # verdict scores nothing.
    assert truth_scores(report, network) == TruthScores(1, 1, 4, 3)
