"""End-to-end tests: scan the simulated Internet, infer aliases, check accuracy."""

import pytest

from repro.core.engine import ResolutionEngine
from repro.core.validation import cross_validate, ground_truth_accuracy
from repro.net.addresses import AddressFamily
from repro.simnet.device import ServiceType
from repro.simnet.topology import generate_topology, small_topology_config
from repro.sources.active import ActiveMeasurement
from repro.sources.hitlist import HitlistConfig, build_ipv6_hitlist


@pytest.fixture(scope="module")
def network():
    config = small_topology_config(
        seed=47,
        loss_rate=0.0,
        cloud_rate_limited_fraction=0.0,
        isp_rate_limited_fraction=0.0,
        churn_fraction=0.0,
    )
    return generate_topology(config)


@pytest.fixture(scope="module")
def observations(network):
    active = ActiveMeasurement(network, seed=3)
    dataset = active.run_ipv4()
    hitlist = build_ipv6_hitlist(network, HitlistConfig(seed=4))
    dataset.extend(active.run_ipv6(hitlist, start_time=10_000.0))
    return dataset


@pytest.fixture(scope="module")
def report(observations):
    return ResolutionEngine().resolve(observations, name="active")


class TestReportStructure:
    def test_all_protocols_present(self, report):
        for protocol in (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3):
            assert protocol in report.ipv4
            assert protocol in report.ipv6
            assert protocol in report.dual_stack

    def test_non_singleton_counts_consistent(self, report):
        counts = report.non_singleton_counts(AddressFamily.IPV4)
        assert counts["union"] >= max(counts["ssh"], counts["bgp"], counts["snmpv3"])
        assert counts["ssh"] > 0
        assert counts["snmpv3"] > 0

    def test_union_covers_at_least_each_protocol(self, report):
        union_addresses = report.ipv4_union.addresses()
        for protocol in (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3):
            assert report.ipv4[protocol].addresses() <= union_addresses

    def test_dual_stack_sets_found(self, report):
        assert len(report.dual_stack[ServiceType.SSH]) > 0
        assert len(report.dual_stack_union) >= len(report.dual_stack[ServiceType.SSH])

    def test_covered_addresses_counts(self, report):
        covered = report.covered_addresses(AddressFamily.IPV4)
        assert covered["union"] >= covered["ssh"]


class TestInferenceAccuracy:
    def test_snmp_sets_match_ground_truth_exactly(self, network, report):
        # SNMPv3 engine IDs are unique per device in the generated topology,
        # so every non-singleton SNMPv3 set must be a subset of one true set.
        truth = network.ground_truth_alias_sets()
        metrics = ground_truth_accuracy(report.ipv4[ServiceType.SNMPV3], truth)
        assert metrics["set_precision"] == 1.0

    def test_ssh_sets_high_precision(self, network, report):
        truth = network.ground_truth_alias_sets()
        metrics = ground_truth_accuracy(report.ipv4[ServiceType.SSH], truth)
        # Factory-default keys are split by capability signatures, but a few
        # same-vendor devices can still collide; precision stays high.
        assert metrics["set_precision"] > 0.9

    def test_bgp_sets_high_precision(self, network, report):
        truth = network.ground_truth_alias_sets()
        metrics = ground_truth_accuracy(report.ipv4[ServiceType.BGP], truth)
        assert metrics["set_precision"] > 0.8

    def test_dual_stack_pairs_are_true_devices(self, network, report):
        truth_owner = {}
        for device in network.devices():
            for address in device.addresses():
                truth_owner[address] = device.device_id
        collection = report.dual_stack[ServiceType.SSH]
        correct = 0
        for dual in collection:
            owners = {truth_owner.get(address) for address in dual.ipv4_addresses | dual.ipv6_addresses}
            if len(owners) == 1:
                correct += 1
        assert correct / len(collection) > 0.9

    def test_cross_protocol_validation_agrees(self, report):
        result = cross_validate(report.ipv4[ServiceType.SSH], report.ipv4[ServiceType.SNMPV3])
        if result.sample_size:
            assert result.agreement_rate > 0.8
