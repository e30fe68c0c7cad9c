"""Tests for the markdown report generator."""

import pytest

from repro.analysis.report import alias_report_markdown
from repro.core.engine import ResolutionEngine
from repro.simnet.topology import generate_topology, small_topology_config
from repro.sources.active import ActiveMeasurement
from repro.sources.hitlist import HitlistConfig, build_ipv6_hitlist


@pytest.fixture(scope="module")
def network():
    config = small_topology_config(seed=77, loss_rate=0.0)
    return generate_topology(config)


@pytest.fixture(scope="module")
def report(network):
    campaign = ActiveMeasurement(network, seed=2)
    observations = campaign.run_ipv4()
    observations.extend(campaign.run_ipv6(build_ipv6_hitlist(network, HitlistConfig(seed=2)), start_time=90_000.0))
    return ResolutionEngine().resolve(observations, name="report-test")


class TestMarkdownReport:
    def test_contains_all_sections(self, report, network):
        text = alias_report_markdown(report, network.registry)
        assert text.startswith("# Alias resolution report — report-test")
        for heading in ("## Non-singleton alias sets", "## Set sizes", "## Dual-stack sets", "## Top ASes"):
            assert heading in text

    def test_mentions_every_protocol_and_union(self, report):
        text = alias_report_markdown(report)
        for token in ("| ssh |", "| bgp |", "| snmpv3 |", "| union |"):
            assert token in text

    def test_top_as_rows_have_roles_with_registry(self, report, network):
        text = alias_report_markdown(report, network.registry)
        assert "cloud" in text or "isp" in text

    def test_without_registry_roles_unknown(self, report):
        text = alias_report_markdown(report)
        assert "unknown" in text
