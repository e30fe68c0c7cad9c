"""Tests for declarative sources, combinators, and the source registries."""

import pytest

from repro.api import ReproSession, ScenarioConfig, SourceSpec, concat, standard_ports, union_of
from repro.api.sources import (
    ACTIVE_IPV4,
    CENSYS_SNAPSHOT_LEAD,
    SOURCE_KINDS,
    SOURCES,
    register_source,
    source_kind,
)
from repro.errors import DatasetError, RegistryError
from repro.simnet.device import ServiceType
from repro.sources.active import ActiveMeasurement
from repro.sources.records import Observation, ObservationDataset

#: Parameters the built-in collection kinds once took, with values a
#: second vantage point's specs carried.
_RETIRED_PARAMS = [
    *(
        (kind, param, value)
        for kind in ("active-ipv4", "active-ipv6")
        for param, value in (
            ("seed_offset", 10),
            ("start_time", 0.0),
            ("vantage_name", "vantage-2"),
            ("vantage_address", "203.0.113.2"),
            ("distributed", True),
        )
    ),
    *(
        (kind, param, value)
        for kind in ("censys-ipv4", "censys-ipv6")
        for param, value in (("miss_rate", 0.5), ("snapshot_time", 0.0), ("seed_offset", 3))
    ),
]


class TestSourceSpec:
    def test_create_sorts_params(self):
        spec = SourceSpec.create("user-kind", seed_offset=3, start_time=0.0)
        assert spec.params == (("seed_offset", 3), ("start_time", 0.0))
        assert spec.param("seed_offset") == 3
        assert spec.param("missing", "fallback") == "fallback"

    def test_specs_are_hashable_cache_keys(self):
        a = SourceSpec.create("user-kind", seed_offset=1)
        b = SourceSpec.create("user-kind", seed_offset=1)
        assert a == b and hash(a) == hash(b)
        assert {a: "cached"}[b] == "cached"

    def test_describe_renders_composition(self):
        spec = union_of(SourceSpec(kind="active-ipv4"), SourceSpec(kind="censys-ipv4"))
        assert "union" in spec.describe()
        assert "active-ipv4" in spec.describe()


class TestBuiltinSources:
    def test_registry_contains_paper_sources(self):
        names = SOURCES.names()
        for expected in ("active", "active-ipv4", "active-ipv6", "censys", "censys-standard", "union"):
            assert expected in names

    def test_datasets_cached_per_spec(self, session):
        assert session.dataset("active-ipv4") is session.dataset("active-ipv4")
        # The bare spec and the registered name resolve to the same cache slot.
        assert session.dataset(ACTIVE_IPV4) is session.dataset("active-ipv4")

    def test_active_composition_streams_both_families(self, session):
        active = session.dataset("active")
        families = {observation.family.value for observation in active}
        assert families == {"ipv4", "ipv6"}
        assert active.name == "active"

    def test_censys_raw_vs_standard(self, session):
        raw = session.dataset("censys")
        standard = session.dataset("censys-standard")
        assert any(not observation.is_standard_port() for observation in raw)
        assert all(observation.is_standard_port() for observation in standard)

    def test_union_merges_both_sources(self, session):
        union = session.dataset("union-ipv4")
        assert union.name == "union"
        sources = {observation.source for observation in union}
        assert sources == {"active", "censys"}

    def test_observations_uses_report_composition(self, session):
        # The "censys" *report* stream is default-port only even though the
        # "censys" dataset is raw — the split the paper's methodology makes.
        assert all(observation.is_standard_port() for observation in session.observations("censys"))

    def test_unknown_source_lists_alternatives(self, session):
        with pytest.raises(RegistryError, match="unknown source 'wat'"):
            session.dataset("wat")

    def test_dataset_independent_of_build_order(self):
        # Campaigns share the network's per-(vantage, AS, window) IDS
        # budgets.  A user-registered kind may scan from the active vantage
        # in active-ipv4's window; the active builders reset the budgets,
        # so a cached dataset is a pure function of (config, spec), not of
        # what ran before it.
        @source_kind("active-ipv4-reseeded", "the active IPv4 scan under another seed")
        def build_reseeded(session, spec):
            campaign = ActiveMeasurement(session.network, seed=session.config.seed + 5)
            return campaign.run_ipv4(start_time=CENSYS_SNAPSHOT_LEAD)

        try:
            alone = ReproSession(ScenarioConfig(scale=0.05, seed=7)).dataset("active-ipv4")
            session = ReproSession(ScenarioConfig(scale=0.05, seed=7))
            session.dataset(SourceSpec(kind="active-ipv4-reseeded"))  # same vantage and window
            after_other_campaign = session.dataset("active-ipv4")
            assert list(alone) == list(after_other_campaign)
        finally:
            SOURCE_KINDS._entries.pop("active-ipv4-reseeded")

    @pytest.mark.parametrize("kind, param, value", _RETIRED_PARAMS)
    def test_builtin_collection_kind_refuses_a_parameter(self, kind, param, value):
        # One vantage point, one schedule: a parameter is refused by name,
        # rather than ignored for the default's dataset.
        session = ReproSession(ScenarioConfig(scale=0.05, seed=7))
        with pytest.raises(DatasetError, match=f"{kind!r} takes no parameters \\(got {param}\\)"):
            session.dataset(SourceSpec.create(kind, **{param: value}))
        assert session.cached_datasets() == {}


class TestUserRegisteredSources:
    def test_custom_kind_and_named_source(self):
        @source_kind("static-fixture", "a fixed in-memory observation list")
        def build_static(session, spec):
            observation = Observation(
                address="192.0.2.77",
                protocol=ServiceType.SSH,
                source="static",
                port=22,
                fields=(("host_key_fingerprint", "abc"),),
            )
            return ObservationDataset(str(spec.param("name", "static")), [observation])

        spec = SourceSpec.create("static-fixture", name="fixture")
        register_source("static-fixture-test", spec, "test fixture source")
        try:
            session = ReproSession(ScenarioConfig(scale=0.01, seed=1))
            dataset = session.dataset("static-fixture-test")
            assert dataset.name == "fixture"
            assert len(dataset) == 1
            # Registered sources compose like built-ins.
            doubled = session.dataset(concat(spec, spec, label="doubled"))
            assert len(doubled) == 2
        finally:
            # Keep the module-level registries clean for other tests.
            SOURCES._entries.pop("static-fixture-test")

    def test_standard_ports_combinator_over_custom_data(self):
        @source_kind("mixed-ports", "observations on mixed ports")
        def build_mixed(session, spec):
            def make(port):
                return Observation(
                    address="192.0.2.99",
                    protocol=ServiceType.SSH,
                    source="mixed",
                    port=port,
                )

            return ObservationDataset("mixed", [make(22), make(2222)])

        session = ReproSession(ScenarioConfig(scale=0.01, seed=1))
        filtered = session.dataset(standard_ports(SourceSpec(kind="mixed-ports")))
        assert [observation.port for observation in filtered] == [22]
