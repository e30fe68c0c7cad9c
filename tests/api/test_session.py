"""Tests for the :class:`ReproSession` facade."""

import pytest

from repro.api import ScenarioConfig


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
        config = ScenarioConfig(scale=0.1, seed=7, loss_rate=0.2)
        topology = config.topology_config()
        assert topology.loss_rate == 0.2

    def test_topology_config_is_immutable(self):
        topology = ScenarioConfig(scale=0.1).topology_config()
        with pytest.raises(AttributeError):
            topology.loss_rate = 0.5

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf"), "x", None, True])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale"):
            ScenarioConfig(scale=scale)

    def test_experiments_run_on_plain_session(self, session):
        text = session.run_experiment("table3")
        assert text.startswith("Table 3")
