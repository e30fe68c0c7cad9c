"""Tests for multi-vantage scan plans over one shared observation index."""

import pytest

from repro.api import ScanPlan
from repro.api.sources import ACTIVE_IPV4, ACTIVE_IPV6
from repro.core.engine import ResolutionEngine, report_signature
from repro.sources.records import iter_observations


@pytest.fixture(scope="module")
def spread_result(session):
    return session.run_plan(ScanPlan.spread(2))


class TestPlanConstruction:
    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            ScanPlan(vantages=())

    def test_spread_vantages_are_distinct(self):
        plan = ScanPlan.spread(3)
        addresses = {vantage.address for vantage in plan.vantages}
        offsets = {vantage.seed_offset for vantage in plan.vantages}
        assert len(addresses) == 3
        assert len(offsets) == 3

    def test_default_plan_specs_share_the_active_cache(self):
        # Pruning default-valued parameters makes the default plan's specs
        # equal the bare active specs, so report("active") and the default
        # plan share one campaign per family.
        plan = ScanPlan.default()
        (vantage,) = plan.vantages
        assert vantage.ipv4_spec(plan) == ACTIVE_IPV4
        assert vantage.ipv6_spec(plan) == ACTIVE_IPV6

    def test_spread_specs_do_not_collide(self):
        plan = ScanPlan.spread(2)
        first, second = plan.vantages
        assert first.ipv4_spec(plan) != second.ipv4_spec(plan)


class TestPlanExecution:
    def test_merged_report_equals_single_stream(self, session, spread_result):
        plan = spread_result.plan
        datasets = [
            session.dataset(spec) for vantage in plan.vantages for spec in vantage.specs(plan)
        ]
        single = ResolutionEngine().resolve(iter_observations(*datasets), name=plan.name)
        assert report_signature(spread_result.report) == report_signature(single)

    def test_per_vantage_observations_sum_to_merged(self, spread_result):
        total = sum(coverage.observations for coverage in spread_result.vantage_coverage)
        assert total == spread_result.merged_coverage.observations
        assert spread_result.index.observed == total

    def test_merged_coverage_at_least_any_vantage(self, spread_result):
        merged = spread_result.merged_coverage
        for coverage in spread_result.vantage_coverage:
            assert merged.ipv4_addresses >= coverage.ipv4_addresses
            assert merged.ipv6_addresses >= coverage.ipv6_addresses

    def test_coverage_markdown_lists_vantages_and_merged(self, spread_result):
        text = spread_result.coverage_markdown()
        assert "vantage-1" in text
        assert "vantage-2" in text
        assert "| merged" in text
        assert "non-singleton IPv4 union sets" in text

    def test_ipv4_only_plan_sees_no_ipv6(self, session):
        result = session.run_plan(ScanPlan.spread(1, include_ipv6=False))
        assert result.merged_coverage.ipv6_addresses == 0
        vantage = result.plan.vantages[0]
        assert len(vantage.specs(result.plan)) == 1
