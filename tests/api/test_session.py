"""Tests for the :class:`ReproSession` facade."""

import pytest

from repro.api import ScenarioConfig
from repro.simnet.topology import TopologyConfig
from repro.sources.hitlist import HitlistConfig


class TestSessionState:
    def test_network_and_hitlist_built_once(self, session):
        assert session.network is session.network
        assert session.hitlist is session.hitlist

    def test_reports_cached(self, session):
        assert session.report("active") is session.report("active")

    def test_report_cache_shared_between_name_and_spec(self, session):
        # The same composition must not re-resolve under a cosmetic name.
        from repro.api.sources import CENSYS_STANDARD

        assert session.report("censys") is session.report(CENSYS_STANDARD)

    def test_report_names_match_source_labels(self, session):
        for source in ("active", "censys", "union"):
            assert session.report(source).name == source

    def test_topology_config_carries_loss_rate(self):
        topology = ScenarioConfig(scale=0.1, seed=7).topology_config()
        assert topology == TopologyConfig(seed=7, scale=0.1)
        assert topology.loss_rate == 0.01

    def test_topology_config_is_immutable(self):
        topology = ScenarioConfig(scale=0.1).topology_config()
        with pytest.raises(AttributeError):
            topology.loss_rate = 0.5

    @pytest.mark.parametrize(
        "scale",
        [0, -1, float("nan"), float("inf"), "x", None, True, pytest.param(10**400, id="beyond-float")],
    )
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale"):
            ScenarioConfig(scale=scale)

    @pytest.mark.parametrize("seed", ["3", 3.0, True, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ScenarioConfig(seed=seed)

    def test_hitlist_config_follows_the_scenario(self, session):
        assert ScenarioConfig(scale=0.1, seed=9).hitlist_config() == HitlistConfig(seed=9)
        assert session.hitlist_config() == session.config.hitlist_config()

    def test_experiments_run_on_plain_session(self, session):
        text = session.run_experiment("table3")
        assert text.startswith("Table 3")
