"""Tests for the iffinder and DNS-PTR baselines."""

from repro.baselines.iffinder import IffinderProber
from repro.baselines.ptr import PtrResolver, ptr_dual_stack_sets
from repro.simnet.asn import AsRegistry, AsRole, AutonomousSystem
from repro.simnet.device import Device, DeviceRole, Interface
from repro.simnet.icmp_policy import IcmpUnreachablePolicy
from repro.simnet.network import SimulatedInternet, VantagePoint

VP = VantagePoint(name="baseline-test")


def build_network():
    registry = AsRegistry()
    registry.add(AutonomousSystem(asn=100, name="ISP", role=AsRole.ISP))
    devices = [
        Device(
            device_id="primary-responder",
            role=DeviceRole.CORE_ROUTER,
            home_asn=100,
            interfaces=[
                Interface(name="a", address="10.0.1.1", asn=100),
                Interface(name="b", address="10.0.1.2", asn=100),
                Interface(name="v6", address="2001:db80::1", asn=100),
            ],
            icmp_unreachable_policy=IcmpUnreachablePolicy.FROM_PRIMARY,
            hostname="core1.isp.example.net",
        ),
        Device(
            device_id="probed-responder",
            role=DeviceRole.CORE_ROUTER,
            home_asn=100,
            interfaces=[
                Interface(name="a", address="10.0.2.1", asn=100),
                Interface(name="b", address="10.0.2.2", asn=100),
            ],
            icmp_unreachable_policy=IcmpUnreachablePolicy.FROM_PROBED,
            hostname="core2.isp.example.net",
        ),
        Device(
            device_id="silent",
            role=DeviceRole.SERVER,
            home_asn=100,
            interfaces=[
                Interface(name="a", address="10.0.3.1", asn=100),
                Interface(name="v6", address="2001:db80::3", asn=100),
            ],
            icmp_unreachable_policy=IcmpUnreachablePolicy.SILENT,
            hostname="host3.isp.example.net",
        ),
    ]
    return SimulatedInternet(registry=registry, devices=devices, seed=2, loss_rate=0.0)


class TestIffinder:
    def test_reveals_aliases_for_primary_responders(self):
        prober = IffinderProber(build_network(), VP)
        observation = prober.probe("10.0.1.2")
        assert observation.reveals_alias
        assert observation.icmp_source == "10.0.1.1"

    def test_probed_address_responders_reveal_nothing(self):
        prober = IffinderProber(build_network(), VP)
        observation = prober.probe("10.0.2.2")
        assert not observation.reveals_alias

    def test_silent_devices_reveal_nothing(self):
        prober = IffinderProber(build_network(), VP)
        observation = prober.probe("10.0.3.1")
        assert observation.icmp_source is None

    def test_resolve_groups_only_revealed_aliases(self):
        prober = IffinderProber(build_network(), VP)
        sets = prober.resolve(["10.0.1.1", "10.0.1.2", "10.0.2.1", "10.0.2.2", "10.0.3.1"])
        assert frozenset({"10.0.1.1", "10.0.1.2"}) in sets
        # The probed-address responder's interfaces stay separate.
        assert frozenset({"10.0.2.1"}) in sets
        assert frozenset({"10.0.2.2"}) in sets

    def test_observations_returns_per_address_detail(self):
        prober = IffinderProber(build_network(), VP)
        observations = prober.observations(["10.0.1.2", "10.0.3.1"])
        assert len(observations) == 2
        assert observations[0].reveals_alias
        assert not observations[1].reveals_alias


class TestPtr:
    def test_full_coverage_pairs_families(self):
        network = build_network()
        resolver = PtrResolver(network, coverage=1.0, seed=1)
        addresses = ["10.0.1.1", "10.0.1.2", "2001:db80::1", "10.0.3.1", "2001:db80::3"]
        collection = ptr_dual_stack_sets(resolver, addresses)
        identifiers = {dual.identifier for dual in collection}
        assert "core1.isp.example.net" in identifiers
        assert "host3.isp.example.net" in identifiers

    def test_zero_coverage_finds_nothing(self):
        network = build_network()
        resolver = PtrResolver(network, coverage=0.0, seed=1)
        collection = ptr_dual_stack_sets(resolver, ["10.0.1.1", "2001:db80::1"])
        assert len(collection) == 0

    def test_unknown_address_resolves_to_none(self):
        resolver = PtrResolver(build_network(), coverage=1.0, seed=1)
        assert resolver.resolve("198.18.0.1") is None

    def test_resolution_is_deterministic(self):
        network = build_network()
        resolver_a = PtrResolver(network, coverage=0.5, seed=9)
        resolver_b = PtrResolver(network, coverage=0.5, seed=9)
        addresses = [f"10.0.{i}.{j}" for i in range(1, 4) for j in range(1, 3)]
        assert [resolver_a.resolve(a) for a in addresses] == [resolver_b.resolve(a) for a in addresses]

    def test_ipv4_only_device_not_a_dual_stack_set(self):
        network = build_network()
        resolver = PtrResolver(network, coverage=1.0, seed=1)
        collection = ptr_dual_stack_sets(resolver, ["10.0.2.1", "10.0.2.2"])
        assert len(collection) == 0


class TestPackageExports:
    def test_every_export_resolves(self):
        import repro.baselines

        for name in repro.baselines.__all__:
            assert getattr(repro.baselines, name) is not None
