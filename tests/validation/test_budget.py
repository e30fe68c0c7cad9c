"""Tests for the probe budget.

Every IPID validation spends from a
:class:`~repro.validation.budget.ProbeBudget`.  On the controlled network
an uncapped run's fresh probes are pinned as exact counts, and a capped
run must mark unaffordable sets unresolved without flipping any resolved
verdict.
"""

import pytest

from repro import obs
from repro.errors import ValidationError
from repro.validation.budget import (
    DEFAULT_VELOCITY_TTL,
    ProbeBudget,
    ProbeBudgetExhausted,
    is_unresolved,
    run_budgeted,
    unresolved_verdict,
)
from repro.validation.runner import ValidationRun, run_validator
from repro.validation.spec import ally, midar, speedtrap
from repro.validation.techniques import MidarConfig

TRUE_SET = frozenset({"10.0.1.1", "10.0.1.2", "10.0.1.3"})
FALSE_SET = frozenset({"10.0.1.1", "10.0.2.1"})
RANDOM_SET = frozenset({"10.0.4.1", "10.0.4.2"})
V6_TRUE_SET = frozenset({"2001:db80::11", "2001:db80::12"})
CANDIDATES = (TRUE_SET, FALSE_SET, RANDOM_SET)


def _decisions(report):
    return [
        (v.candidate, v.testable, v.agrees, v.partition) for v in report.verdicts
    ]


def _sets_per_outcome(registry, validator):
    """The ``validation.budget`` counter's sets per outcome, zeros dropped."""
    counts = {
        outcome: registry.counter_value(
            "validation.budget", outcome=outcome, validator=validator
        )
        for outcome in ("probed", "cached", "unresolved")
    }
    return {outcome: count for outcome, count in counts.items() if count}


class TestProbeBudget:
    def test_unlimited_grants_and_tracks_spend(self):
        budget = ProbeBudget()
        assert budget.request(10_000)
        budget.charge(10_000)
        assert budget.spent == 10_000
        assert not budget.closed

    def test_denial_closes_the_budget(self):
        budget = ProbeBudget(limit=10)
        assert budget.request(8)
        budget.charge(8)
        assert not budget.request(3)  # would overrun
        assert budget.closed
        assert not budget.request(1)  # affordable, but the budget is closed
        assert budget.spent == 8

    def test_negative_limit_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            ProbeBudget(limit=-1)

    def test_zero_limit_denies_everything(self):
        budget = ProbeBudget(limit=0)
        assert not budget.request(1)
        assert budget.closed


class TestUnresolvedVerdict:
    def test_shape_and_detection(self):
        verdict = unresolved_verdict(TRUE_SET, at=5.0)
        assert not verdict.testable
        assert not verdict.agrees
        assert verdict.partition == ()
        assert verdict.classes == tuple(
            (address, "unresolved") for address in sorted(TRUE_SET)
        )
        assert is_unresolved(verdict)

    def test_normal_verdicts_not_flagged(self, network):
        report = run_validator(
            ValidationRun(network), midar(), candidates=CANDIDATES, start_time=0.0
        )
        assert not any(is_unresolved(v) for v in report.verdicts)


class TestUncappedParity:
    """No cap: a run with no budget attached probes exactly as one with an
    attached uncapped budget, and its fresh probes are exact counts."""

    @pytest.mark.parametrize(
        "spec_fn,candidates,probes",
        [
            # MIDAR: 8 estimation probes per member, one 12-probe pass per
            # corroborated pair, and early-stopped random-IPID estimation.
            (midar, CANDIDATES, 74),
            # Ally: one 6-probe pair test per pair it needs.
            (ally, CANDIDATES, 24),
            # Speedtrap: 6 estimation probes per member, one 10-probe pass.
            (speedtrap, (V6_TRUE_SET,), 22),
        ],
        ids=["midar", "ally", "speedtrap"],
    )
    def test_fresh_probes_are_exact(
        self, make_network, count_probes, spec_fn, candidates, probes
    ):
        spec = spec_fn()
        default_network = make_network()
        default_counter = count_probes(default_network)
        default = run_validator(
            ValidationRun(default_network), spec, candidates=candidates, start_time=0.0
        )

        attached_network = make_network()
        attached_counter = count_probes(attached_network)
        run = ValidationRun(attached_network)
        run.budget = ProbeBudget()
        attached = run_validator(run, spec, candidates=candidates, start_time=0.0)

        # A run with no budget attached spends from a fresh uncapped one:
        # the same decisions and the same probes as attaching it.
        assert _decisions(default) == _decisions(attached)
        assert default_counter["probes"] == attached_counter["probes"] == probes
        assert default.probes_issued == run.budget.spent == probes

    def test_fresh_pair_probes_one_corroboration_pass(self, network, count_probes):
        # A two-member true set: full estimation of both members, then one
        # interleaved pass; the repeat pass re-reads the first.
        counter = count_probes(network)
        pair = frozenset(sorted(TRUE_SET)[:2])
        report = run_validator(
            ValidationRun(network), midar(), candidates=(pair,), start_time=0.0
        )
        config = MidarConfig()
        one_pass = 2 * config.estimation_samples + 2 * config.corroboration_rounds
        assert counter["probes"] == report.probes_issued == one_pass == 28
        assert report.verdicts[0].agrees

    def test_composed_midar_ally_shares_estimation(self, make_network, count_probes):
        network = make_network()
        counter = count_probes(network)
        run = ValidationRun(network)
        run.budget = ProbeBudget()
        run_validator(run, midar(), candidates=CANDIDATES, start_time=0.0)
        after_midar = counter["probes"]
        independent_network = make_network()
        independent_counter = count_probes(independent_network)
        run_validator(
            ValidationRun(independent_network),
            ally(),
            candidates=CANDIDATES,
            start_time=0.0,
        )
        ally_report = run_validator(
            run, ally(), candidates=CANDIDATES, start_time=0.0
        )
        # Most Ally pairs are answered from banked MIDAR corroboration;
        # only pairs the transitive skip left unprobed go to the network.
        assert counter["probes"] - after_midar < independent_counter["probes"]
        assert ally_report.probes_reused > 0


class TestCappedDegradation:
    def test_skipped_sets_unresolved_resolved_verdicts_identical(self, make_network):
        spec = midar()
        uncapped_run = ValidationRun(make_network())
        uncapped_run.budget = ProbeBudget()
        uncapped = run_validator(
            uncapped_run, spec, candidates=CANDIDATES, start_time=0.0
        )
        spent = uncapped_run.budget.spent

        # One probe short of the full spend: the last fresh-probe request
        # is denied, so the final scheduled set goes unresolved while every
        # earlier set resolved exactly as the uncapped run did.
        capped_run = ValidationRun(make_network())
        capped_run.budget = ProbeBudget(limit=spent - 1)
        capped = run_validator(capped_run, spec, candidates=CANDIDATES, start_time=0.0)

        assert capped_run.budget.closed
        assert capped_run.budget.spent <= spent - 1
        unresolved = [v for v in capped.verdicts if is_unresolved(v)]
        assert unresolved
        resolved_parity = [
            (c, u)
            for c, u in zip(capped.verdicts, uncapped.verdicts)
            if not is_unresolved(c)
        ]
        assert resolved_parity, "the capped run resolved nothing"
        for capped_verdict, uncapped_verdict in resolved_parity:
            assert capped_verdict.testable == uncapped_verdict.testable
            assert capped_verdict.agrees == uncapped_verdict.agrees
            assert capped_verdict.partition == uncapped_verdict.partition

    def test_zero_budget_leaves_every_set_unresolved(self, network, count_probes):
        counter = count_probes(network)
        run = ValidationRun(network)
        run.budget = ProbeBudget(limit=0)
        with obs.observed() as registry:
            report = run_validator(
                run, midar(), candidates=CANDIDATES, start_time=0.0
            )
        assert counter["probes"] == 0
        assert all(is_unresolved(v) for v in report.verdicts)
        assert _sets_per_outcome(registry, "midar") == {"unresolved": len(CANDIDATES)}

    @pytest.mark.parametrize(
        "spec_fn, candidates",
        [(ally, CANDIDATES), (speedtrap, (V6_TRUE_SET,))],
        ids=["ally", "speedtrap"],
    )
    def test_zero_budget_gates_ally_and_speedtrap(
        self, network, count_probes, spec_fn, candidates
    ):
        counter = count_probes(network)
        run = ValidationRun(network)
        run.budget = ProbeBudget(limit=0)
        report = run_validator(
            run, spec_fn(), candidates=candidates, start_time=0.0
        )
        assert counter["probes"] == 0
        assert all(is_unresolved(v) for v in report.verdicts)
        assert len(report.verdicts) == len(candidates)

    def test_zero_budget_still_answers_from_the_bank(self, network, count_probes):
        warm = ValidationRun(network)
        warm.budget = ProbeBudget()
        run_validator(warm, midar(), candidates=CANDIDATES, start_time=0.0)
        counter = count_probes(network)
        warm.budget = ProbeBudget(limit=0)
        with obs.observed() as registry:
            report = run_validator(
                warm, midar(), candidates=CANDIDATES, start_time=0.0
            )
        assert counter["probes"] == 0
        assert not any(is_unresolved(v) for v in report.verdicts)
        assert _sets_per_outcome(registry, "midar") == {"cached": len(CANDIDATES)}
        assert report.probes_issued == 0

    def test_exhaustion_escapes_outside_a_runner(self, network, vantage):
        from repro.validation.bank import IpidSampleBank
        from repro.validation.techniques import MidarPipeline

        pipeline = MidarPipeline(
            IpidSampleBank(network, vantage), None, ProbeBudget(limit=0)
        )
        with pytest.raises(ProbeBudgetExhausted):
            pipeline.estimate(sorted(TRUE_SET), start_time=0.0)


class TestVelocityTtl:
    def test_expired_velocity_always_reprobes(self, network, count_probes):
        run = ValidationRun(network)
        run.budget = ProbeBudget()
        run_validator(run, midar(), candidates=(TRUE_SET,), start_time=0.0)
        counter = count_probes(network)
        # Past one day: the banked estimation must not be reused.
        run_validator(
            run,
            midar(),
            candidates=(TRUE_SET,),
            start_time=2 * DEFAULT_VELOCITY_TTL,
        )
        assert counter["probes"] > 0

    def test_fresh_velocity_rescores_free(self, network, count_probes):
        run = ValidationRun(network)
        run.budget = ProbeBudget()
        run_validator(run, midar(), candidates=(TRUE_SET,), start_time=0.0)
        counter = count_probes(network)
        run_validator(run, midar(), candidates=(TRUE_SET,), start_time=0.0)
        assert counter["probes"] == 0


class TestObsAccounting:
    def test_budget_counter_counts_sets_per_outcome(self, network):
        registry = obs.enable()
        try:
            run = ValidationRun(network)
            run.budget = ProbeBudget()
            run_validator(
                run, midar(), candidates=CANDIDATES, start_time=0.0
            )
            probed = registry.counter_value(
                "validation.budget", outcome="probed", validator="midar"
            )
            assert probed == len(CANDIDATES)
        finally:
            obs.disable()


class TestRunBudgeted:
    def test_restores_previous_budget(self, network):
        run = ValidationRun(network)
        sentinel = ProbeBudget()
        run.budget = sentinel
        spec = midar()
        with pytest.raises(ValidationError, match="needs a session"):
            run_budgeted(run, [spec])  # no session: candidate derivation fails
        assert run.budget is sentinel

    def test_unknown_validator_name_raises(self, network):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError, match="unknown validator"):
            run_budgeted(ValidationRun(network), ["no-such-validator"])


class TestDerivedStartMemoisation:
    def test_equal_schedules_share_one_start(self, network):
        class FakeObservation:
            def __init__(self, timestamp):
                self.timestamp = timestamp

        class FakeSession:
            def dataset(self, name):
                return [FakeObservation(10.0), FakeObservation(50.0)]

        run = ValidationRun(network, session=FakeSession())
        first = run.derived_start("active-ipv6")
        second = run.derived_start("active-ipv6")
        assert first == second == 50.0 + 3600.0

    def test_without_session_raises(self, network):
        with pytest.raises(ValidationError, match="session"):
            ValidationRun(network).derived_start("active-ipv6")

    def test_run_without_network_or_session_raises(self):
        with pytest.raises(ValidationError, match="network or a session"):
            ValidationRun()
