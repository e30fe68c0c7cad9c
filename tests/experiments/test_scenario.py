"""Tests for the shared evaluation scenario's session datasets."""

import pytest

from repro.simnet.device import ServiceType


class TestScenario:
    def test_lazy_properties_are_cached(self, scenario):
        assert scenario.network is scenario.network
        assert scenario.dataset("active-ipv4") is scenario.dataset("active-ipv4")
        assert scenario.report("active") is scenario.report("active")

    def test_derived_datasets_are_cached(self, scenario):
        assert scenario.dataset("union-ipv4") is scenario.dataset("union-ipv4")
        assert scenario.dataset("censys-standard") is scenario.dataset("censys-standard")

    def test_sources_have_expected_protocols(self, scenario):
        assert scenario.dataset("active-ipv4").protocols() == {ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3}
        assert ServiceType.SNMPV3 not in scenario.dataset("censys").protocols()

    def test_active_ipv6_limited_to_hitlist(self, scenario):
        hitlist = set(scenario.hitlist)
        assert scenario.dataset("active-ipv6").addresses() <= hitlist

    def test_union_dataset_is_default_port_only(self, scenario):
        assert all(observation.is_standard_port() for observation in scenario.dataset("union-ipv4"))

    def test_unknown_report_source_rejected(self, scenario):
        with pytest.raises(ValueError):
            scenario.report("mystery")

    def test_censys_snapshot_earlier_than_active(self, scenario):
        censys_times = [observation.timestamp for observation in scenario.dataset("censys")]
        active_times = [observation.timestamp for observation in scenario.dataset("active-ipv4")]
        assert max(censys_times) < min(active_times)
