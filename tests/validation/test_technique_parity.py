"""MIDAR, Speedtrap and Ally against their reference pipelines and bank.

``reference_techniques`` and ``reference_bank`` are the two modules as they
were before MIDAR and Ally ran one pair test in one corroboration loop and
the bank lost its exact-key reads.  Over the controlled network and
scale-0.05 sessions, seeded candidate sets, fresh and shared banks, and
uncapped and capped budgets, the current modules must return the
reference's verdicts (probing windows included), spend the same budget
and leave every bank with the same counters and the same stored evidence.
"""

import dataclasses
import random

import pytest
import reference_bank
import reference_techniques

from repro.api import ReproSession, ScenarioConfig
from repro.simnet.topology import generate_topology
from repro.validation import techniques
from repro.validation.bank import IpidSampleBank
from repro.validation.budget import DEFAULT_VELOCITY_TTL, ProbeBudget, ProbeBudgetExhausted
from repro.validation.runner import SPEEDTRAP_CONFIG, VALIDATION_VANTAGE, candidate_sets
from repro.validation.spec import midar
from repro.validation.techniques import MidarConfig

REFERENCE = (reference_techniques, reference_bank.IpidSampleBank)
CURRENT = (techniques, IpidSampleBank)

#: Each round runs MIDAR, Speedtrap and Ally in turn from the same start,
#: as the runner does; the second round's evidence is all stale.
ROUND_STARTS = (1_000.0, 1_000.0 + 2.5 * DEFAULT_VELOCITY_TTL)


def _transcript(side, make_network, candidates, shared, limit):
    """Everything one side's pipelines produce over ``candidates``."""
    module, bank_class = side
    network = make_network()
    budget = ProbeBudget(limit=limit)
    banks = []

    def bank():
        if not (shared and banks):
            banks.append(bank_class(network, VALIDATION_VANTAGE))
        return banks[-1]

    pipelines = (
        module.MidarPipeline(bank(), MidarConfig(), budget),
        module.MidarPipeline(bank(), SPEEDTRAP_CONFIG, budget),
        module.AllyPipeline(bank(), budget),
    )
    verdicts = []
    for start in ROUND_STARTS:
        for pipeline in pipelines:
            now = start
            for candidate in candidates:
                try:
                    verdict = pipeline.verify_set(candidate, start_time=now)
                except ProbeBudgetExhausted:
                    verdicts.append(("unresolved", candidate, now))
                else:
                    verdicts.append(verdict)
                    now = verdict.finished_at
    pairs = []
    ally = pipelines[2]
    for candidate in candidates:
        left, right = sorted(candidate)[:2]
        try:
            pairs.append(dataclasses.astuple(ally.test_pair(left, right, ROUND_STARTS[-1])))
        except ProbeBudgetExhausted:
            pairs.append(("unresolved", left, right))
    return {
        "verdicts": verdicts,
        "pairs": pairs,
        "budget": (budget.spent, budget.closed),
        "banks": [(b.probes_issued, b.probes_reused, b.export_state()) for b in banks],
    }


def _assert_parity(make_network, candidates):
    for shared in (False, True):
        uncapped = _transcript(REFERENCE, make_network, candidates, shared, None)
        assert _transcript(CURRENT, make_network, candidates, shared, None) == uncapped
        spent = uncapped["budget"][0]
        assert spent > 0
        for limit in (spent // 3, 2 * spent // 3):
            reference = _transcript(REFERENCE, make_network, candidates, shared, limit)
            assert reference["budget"][1]  # the cap closed the budget
            assert _transcript(CURRENT, make_network, candidates, shared, limit) == reference


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_controlled_network(make_network, seed):
    addresses = [
        address
        for device in make_network().devices()
        for address in device.addresses()
    ] + ["198.18.0.1", "198.18.0.2"]
    rng = random.Random(seed)
    candidates = [frozenset(rng.sample(addresses, rng.randint(2, 7))) for _ in range(10)]
    _assert_parity(make_network, candidates)


@pytest.mark.parametrize("seed", [3, 42])
def test_scale_005_session(seed):
    config = ScenarioConfig(scale=0.05, seed=seed)
    sets = list(candidate_sets(ReproSession(config).report("active-ipv4"), midar()))
    rng = random.Random(seed)
    # The index's own sets, then seeded merges of two of them, which the
    # techniques should split.
    candidates = sets[:20] + [
        frozenset(sorted(left)[:3]) | frozenset(sorted(right)[:3])
        for left, right in (rng.sample(sets, 2) for _ in range(8))
    ]
    _assert_parity(lambda: generate_topology(config.topology_config()), candidates)
