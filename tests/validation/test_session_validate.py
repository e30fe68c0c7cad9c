"""Tests for ``ReproSession.validate`` and the Table 2 registry rebuild."""

import random

import pytest

from repro.api.config import ScenarioConfig
from repro.api.experiments import get_experiment
from repro.api.session import ReproSession
from repro.errors import RegistryError, ValidationError
from repro.simnet.device import ServiceType
from repro.simnet.network import VantagePoint
from repro.validation.bank import IpidSampleBank
from repro.validation.runner import table2_midar_spec
from repro.validation.spec import ValidatorSpec, midar, named_validator, sample
from repro.validation.techniques import MidarPipeline

#: Parameters the built-in technique kinds once read, each with a value a
#: caller could have set, and one misspelt parameter.
_UNTAKEN_PARAMETERS = {
    "vantage_name": "vantage-2",
    "vantage_address": "192.0.2.9",
    "distributed": True,
    "estimation_samples": 2,
    "estimation_interval": 2.0,
    "corroboration_rounds": 6,
    "corroboration_interval": 1.0,
    "corroboration_passes": 2,
    "min_responses": 3,
    "max_velocity": 2_000.0,
    "velocity_ratio_bound": 20.0,
    "max_set_size": 10,
    "rounds": 3,
    "interval": 0.5,
    "start_time": 0.0,
    "start_lag": 3600.0,
    "famly": "ipv6",
}


@pytest.fixture(scope="module")
def session():
    return ReproSession(ScenarioConfig(scale=0.1, seed=5))


class TestValidateCaching:
    def test_validate_by_name_cached(self, session):
        first = session.validate("midar")
        assert session.validate("midar") is first
        assert ("midar" in {name for _, name in session.cached_validations()})

    def test_validate_by_equal_spec_shares_cache(self, session):
        by_name = session.validate("midar")
        by_spec = session.validate(named_validator("midar"))
        assert by_spec is by_name

    def test_unknown_validator_lists_alternatives(self, session):
        with pytest.raises(RegistryError, match="unknown validator 'bogus'"):
            session.validate("bogus")

    def test_unregistered_inner_kind_fails_before_any_collection(self):
        fresh = ReproSession(ScenarioConfig(scale=0.1, seed=5))
        spec = sample(ValidatorSpec.create("nonsense", source="active"))
        with pytest.raises(RegistryError, match="unknown validator kind 'nonsense'"):
            fresh.validate(spec)
        assert fresh.cached_datasets() == {}
        assert fresh.cached_reports() == {}

    def test_shared_bank_across_validators(self, session):
        session.validate("midar")
        ally_report = session.validate("ally")
        assert ally_report.probes_reused > 0


class TestOneValidationPath:
    def test_uncapped_list_reports_as_successive_validates(self):
        # Two runs of one MIDAR configuration under one uncapped budget:
        # the second reports exactly as it does when validated after the
        # first, probing windows included.
        union = sample(
            midar(source="active", protocol="union", family="ipv4", start_after="active-ipv6"),
            size=150,
            seed=7,
            max_size=10,
        )
        config = ScenarioConfig(scale=0.05, seed=3)
        budgeted = ReproSession(config).validate_budgeted(["midar", union])
        successive = ReproSession(config)
        assert budgeted.reports[0] == successive.validate("midar")
        assert budgeted.reports[1].verdicts == successive.validate(union).verdicts
        assert budgeted.reports[1] == successive.validate(union)


class TestUntakenParameters:
    """A built-in kind takes only the parameters it reads; any other fails
    by name before a candidate set is derived."""

    @pytest.mark.parametrize("nested", [False, True], ids=["bare", "in-sample"])
    @pytest.mark.parametrize("parameter", sorted(_UNTAKEN_PARAMETERS))
    @pytest.mark.parametrize("kind", ["midar", "speedtrap", "ally"])
    def test_rejected_before_any_collection(self, kind, parameter, nested):
        fresh = ReproSession(ScenarioConfig(scale=0.1, seed=5))
        spec = ValidatorSpec.create(
            kind, source="active", protocol="ssh", **{parameter: _UNTAKEN_PARAMETERS[parameter]}
        )
        if nested:
            spec = sample(spec, size=5, seed=3, max_size=10)
        with pytest.raises(ValidationError, match=f"{kind!r} takes no parameter {parameter!r}"):
            fresh.validate(spec)
        assert fresh.cached_datasets() == {}
        assert fresh.cached_reports() == {}
        assert fresh.cached_validations() == {}

    @pytest.mark.parametrize("parameter", ["family", "source", "start_after", "famly"])
    def test_sample_takes_only_its_draw(self, parameter):
        fresh = ReproSession(ScenarioConfig(scale=0.1, seed=5))
        spec = ValidatorSpec.create(
            "sample", inputs=(ValidatorSpec.create("midar"),), size=5, **{parameter: "active"}
        )
        with pytest.raises(ValidationError, match=f"'sample' takes no parameter {parameter!r}"):
            fresh.validate(spec)
        assert fresh.cached_datasets() == {}
        assert fresh.cached_reports() == {}


class TestTable2RegistryParity:
    def test_table2_matches_legacy_hand_wired_build(self):
        """The registry-driven Table 2 counts what a hand-wired build counts.

        The hand-wired build is replicated inline: sample SSH sets by hand,
        run a ``MidarPipeline`` over a private bank directly, and count
        testable/agreeing verdicts.
        """
        config = ScenarioConfig(scale=0.2, seed=42)
        legacy_session = ReproSession(config)
        report = legacy_session.report("active")
        ssh = report.ipv4[ServiceType.SSH]
        candidates = [
            alias_set.addresses
            for alias_set in ssh.non_singleton()
            if len(alias_set.addresses) <= 10
        ]
        chosen = random.Random(7).sample(candidates, min(150, len(candidates)))
        pipeline = MidarPipeline(
            IpidSampleBank(
                legacy_session.network, VantagePoint(name="midar-vp", address="192.0.2.251")
            )
        )
        start = max(o.timestamp for o in legacy_session.dataset("active-ipv6")) + 3600.0
        verdicts = pipeline.verify_sets(chosen, start_time=start)
        testable = [v for v in verdicts if v.testable]
        agree = sum(1 for v in testable if v.agrees)

        registry_session = ReproSession(config)
        result = get_experiment("table2").build(registry_session)
        midar_row = result.row("SSH-MIDAR")
        assert result.midar_sampled_sets == len(chosen)
        assert result.midar_testable_sets == len(testable)
        assert midar_row.sample_size == len(testable)
        assert midar_row.agree == agree
        assert midar_row.disagree == len(testable) - agree
        # The experiment's validation run landed in the session cache under
        # the same spec the registry registers for "midar".
        cached_specs = [spec for spec, _ in registry_session.cached_validations()]
        assert table2_midar_spec() in cached_specs

    def test_table2_kwargs_still_accepted(self, session):
        result = get_experiment("table2").build(session, midar_sample_size=10, midar_seed=3)
        assert result.midar_sampled_sets <= 10
        assert {row.pair for row in result.rows} == {
            "SSH-BGP",
            "SSH-SNMPv3",
            "BGP-SNMPv3",
            "SSH-MIDAR",
        }
