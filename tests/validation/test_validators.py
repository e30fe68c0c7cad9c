"""Tests for the built-in validator kinds on a controlled network."""

import random

import pytest

from repro.errors import RegistryError, ValidationError
from repro.validation.bank import IpidSampleBank
from repro.validation.budget import DEFAULT_VELOCITY_TTL
from repro.validation.runner import ValidationRun, run_validator
from repro.validation.spec import (
    ValidatorSpec,
    ally,
    midar,
    sample,
    speedtrap,
)
from repro.validation.techniques import MidarPipeline

TRUE_SET = frozenset({"10.0.1.1", "10.0.1.2", "10.0.1.3"})
FALSE_SET = frozenset({"10.0.1.1", "10.0.2.1"})
RANDOM_SET = frozenset({"10.0.4.1", "10.0.4.2"})
V6_MIXED_SET = frozenset({"10.0.1.1", "2001:db80::11", "2001:db80::12"})


class TestMidarValidator:
    def test_matches_direct_prober(self, network, make_network, vantage):
        run = ValidationRun(network)
        report = run_validator(
            run, midar(), candidates=(TRUE_SET, FALSE_SET), start_time=0.0
        )
        direct = MidarPipeline(IpidSampleBank(make_network(), vantage)).verify_sets(
            [TRUE_SET, FALSE_SET]
        )
        assert [(v.candidate, v.testable, v.agrees) for v in report.verdicts] == [
            (v.candidate, v.testable, v.agrees) for v in direct
        ]
        assert report.candidates == 2
        assert report.testable_count == 2
        assert report.agree_count == 1
        assert report.disagree_count == 1

    def test_untestable_set_counted_in_coverage(self, network):
        report = run_validator(
            ValidationRun(network),
            midar(),
            candidates=(TRUE_SET, RANDOM_SET),
            start_time=0.0,
        )
        assert report.testable_count == 1
        assert report.testable_coverage == pytest.approx(0.5)
        assert report.verdicts[1].classes  # diagnostic target classes recorded

    def test_probe_accounting(self, network, count_probes):
        counter = count_probes(network)
        report = run_validator(
            ValidationRun(network), midar(), candidates=(TRUE_SET,), start_time=0.0
        )
        assert report.probes_issued == counter["probes"]
        assert report.probes_reused == 0


class TestAllyValidator:
    def test_reuses_midar_series_with_zero_fresh_probes(self, network, count_probes):
        run = ValidationRun(network)
        run_validator(run, midar(), candidates=(TRUE_SET,), start_time=0.0)
        counter = count_probes(network)
        report = run_validator(run, ally(), candidates=(TRUE_SET,), start_time=0.0)
        assert counter["probes"] == 0  # every pair answered from the bank
        assert report.probes_issued == 0
        assert report.probes_reused > 0
        (verdict,) = report.verdicts
        assert verdict.testable
        assert verdict.agrees
        assert verdict.partition == (TRUE_SET,)

    def test_without_reuse_probes_fresh(self, network, count_probes):
        # Banked pairs older than the staleness bound are never reused.
        run = ValidationRun(network)
        run_validator(run, midar(), candidates=(TRUE_SET,), start_time=0.0)
        counter = count_probes(network)
        report = run_validator(
            run,
            ally(),
            candidates=(TRUE_SET,),
            start_time=2 * DEFAULT_VELOCITY_TTL,
        )
        assert counter["probes"] > 0
        assert report.probes_issued == counter["probes"]
        assert report.probes_reused == 0

    def test_splits_false_set(self, network):
        report = run_validator(
            ValidationRun(network), ally(), candidates=(FALSE_SET,), start_time=0.0
        )
        (verdict,) = report.verdicts
        assert verdict.testable
        assert not verdict.agrees
        assert len(verdict.partition) == 2


class TestSpeedtrapValidator:
    def test_drops_ipv4_members(self, network):
        report = run_validator(
            ValidationRun(network),
            speedtrap(),
            candidates=(V6_MIXED_SET,),
            start_time=0.0,
        )
        (verdict,) = report.verdicts
        assert verdict.candidate == frozenset({"2001:db80::11", "2001:db80::12"})
        assert verdict.testable
        assert verdict.agrees


class TestSampleCombinator:
    def test_matches_seeded_random_sample(self, network):
        base = tuple(frozenset({f"10.9.{i}.1", f"10.9.{i}.2"}) for i in range(20))
        spec = sample(midar(), size=5, seed=13)
        report = run_validator(ValidationRun(network), spec, candidates=base, start_time=0.0)
        expected = random.Random(13).sample(list(base), 5)
        assert [v.candidate for v in report.verdicts] == [frozenset(c) for c in expected]
        assert report.candidates == 5
        assert report.validator == "sample"
        assert report.spec == spec

    def test_max_size_filters_before_sampling(self, network):
        big = frozenset({f"10.8.0.{i}" for i in range(1, 15)})
        base = (TRUE_SET, big)
        report = run_validator(
            ValidationRun(network),
            sample(midar(), size=10, seed=1, max_size=10),
            candidates=base,
            start_time=0.0,
        )
        assert report.candidates == 1
        assert report.verdicts[0].candidate == TRUE_SET


class TestSessionlessDerivation:
    def test_missing_session_raises(self, network):
        with pytest.raises(ValidationError, match="needs a session"):
            run_validator(ValidationRun(network), midar())

    def test_missing_session_start_after_raises(self, network):
        with pytest.raises(ValidationError, match="start_time"):
            run_validator(
                ValidationRun(network),
                midar(start_after="active-ipv6"),
                candidates=(TRUE_SET,),
            )


class TestUnregisteredKind:
    @pytest.mark.parametrize("depth", [1, 2], ids=["sample", "nested-sample"])
    def test_inner_kind_rejected_before_candidates_are_derived(self, network, depth):
        # Sessionless and without candidates, deriving the sample's sets
        # would raise "needs a session"; the unknown kind must fail first.
        spec = ValidatorSpec.create("nonsense", source="active")
        for _ in range(depth):
            spec = sample(spec)
        with pytest.raises(RegistryError, match="unknown validator kind 'nonsense'"):
            run_validator(ValidationRun(network), spec)
