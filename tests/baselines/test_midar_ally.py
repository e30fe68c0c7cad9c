"""Tests for the MIDAR pipeline, Ally, and Speedtrap on controlled devices.

MIDAR and Ally run over a private :class:`IpidSampleBank`; Speedtrap runs
as the ``speedtrap`` validator kind.
"""


import random

from repro.baselines.ipid import TargetClass
from repro.net.ipid import (
    ConstantIpidCounter,
    MonotonicIpidCounter,
    PerInterfaceIpidCounter,
    RandomIpidCounter,
)
from repro.simnet.asn import AsRegistry, AsRole, AutonomousSystem
from repro.simnet.churn import ChurnEvent, ChurnModel
from repro.simnet.device import Device, DeviceRole, Interface
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.validation.bank import IpidSampleBank
from repro.validation.runner import ValidationRun, run_validator
from repro.validation.spec import speedtrap
from repro.validation.techniques import MIDAR_MAX_SET_SIZE, AllyPipeline, MidarPipeline


def build_network(churn=None):
    registry = AsRegistry()
    registry.add(AutonomousSystem(asn=100, name="ISP", role=AsRole.ISP))
    devices = [
        # Shared monotonic counter: the MIDAR-friendly router.
        Device(
            device_id="shared",
            role=DeviceRole.CORE_ROUTER,
            home_asn=100,
            interfaces=[
                Interface(name="a", address="10.0.1.1", asn=100),
                Interface(name="b", address="10.0.1.2", asn=100),
                Interface(name="c", address="10.0.1.3", asn=100),
                Interface(name="v6a", address="2001:db80::11", asn=100),
                Interface(name="v6b", address="2001:db80::12", asn=100),
            ],
            ipid_counter=MonotonicIpidCounter(start=1000, velocity=5.0, jitter=0),
        ),
        # Second shared-counter router with a distant offset (not aliases of the first).
        Device(
            device_id="shared-2",
            role=DeviceRole.CORE_ROUTER,
            home_asn=100,
            interfaces=[
                Interface(name="a", address="10.0.2.1", asn=100),
                Interface(name="b", address="10.0.2.2", asn=100),
            ],
            ipid_counter=MonotonicIpidCounter(start=40000, velocity=5.0, jitter=0),
        ),
        # Per-interface counters: aliases invisible to IPID techniques.
        Device(
            device_id="per-interface",
            role=DeviceRole.CORE_ROUTER,
            home_asn=100,
            interfaces=[
                Interface(name="a", address="10.0.3.1", asn=100),
                Interface(name="b", address="10.0.3.2", asn=100),
            ],
            ipid_counter=PerInterfaceIpidCounter(velocity=5.0, rng=random.Random(99)),
        ),
        # Random IPIDs: untestable.
        Device(
            device_id="random",
            role=DeviceRole.SERVER,
            home_asn=100,
            interfaces=[
                Interface(name="a", address="10.0.4.1", asn=100),
                Interface(name="b", address="10.0.4.2", asn=100),
            ],
            ipid_counter=RandomIpidCounter(rng=random.Random(4)),
        ),
        # Constant zero IPIDs: untestable.
        Device(
            device_id="constant",
            role=DeviceRole.SERVER,
            home_asn=100,
            interfaces=[
                Interface(name="a", address="10.0.5.1", asn=100),
                Interface(name="b", address="10.0.5.2", asn=100),
            ],
            ipid_counter=ConstantIpidCounter(value=0),
        ),
    ]
    return SimulatedInternet(registry=registry, devices=devices, churn=churn, seed=1, loss_rate=0.0)


VP = VantagePoint(name="midar-test")


def midar_pipeline(network):
    return MidarPipeline(IpidSampleBank(network, VP))


def ally_pipeline(network):
    return AllyPipeline(IpidSampleBank(network, VP))


def speedtrap_verdict(candidate):
    report = run_validator(
        ValidationRun(build_network()),
        speedtrap(),
        candidates=(frozenset(candidate),),
        start_time=0.0,
    )
    (verdict,) = report.verdicts
    return verdict


class TestMidar:
    def test_confirms_true_alias_set(self):
        pipeline = midar_pipeline(build_network())
        verdict = pipeline.verify_set(["10.0.1.1", "10.0.1.2", "10.0.1.3"])
        assert verdict.testable
        assert verdict.agrees
        assert verdict.partition == (frozenset({"10.0.1.1", "10.0.1.2", "10.0.1.3"}),)

    def test_splits_false_alias_set(self):
        pipeline = midar_pipeline(build_network())
        verdict = pipeline.verify_set(["10.0.1.1", "10.0.2.1"])
        assert verdict.testable
        assert not verdict.agrees
        assert len(verdict.partition) == 2

    def test_per_interface_counters_not_confirmed(self):
        pipeline = midar_pipeline(build_network())
        verdict = pipeline.verify_set(["10.0.3.1", "10.0.3.2"])
        # Each interface is individually usable, but corroboration fails.
        assert verdict.testable
        assert not verdict.agrees

    def test_random_ipid_set_untestable(self):
        pipeline = midar_pipeline(build_network())
        verdict = pipeline.verify_set(["10.0.4.1", "10.0.4.2"])
        assert not verdict.testable
        assert dict(verdict.classes)["10.0.4.1"] == TargetClass.NON_MONOTONIC.value

    def test_constant_ipid_set_untestable(self):
        pipeline = midar_pipeline(build_network())
        verdict = pipeline.verify_set(["10.0.5.1", "10.0.5.2"])
        assert not verdict.testable

    def test_unknown_address_unresponsive(self):
        pipeline = midar_pipeline(build_network())
        verdict = pipeline.verify_set(["10.0.1.1", "198.18.0.1"])
        assert dict(verdict.classes)["198.18.0.1"] == TargetClass.UNRESPONSIVE.value
        assert not verdict.testable

    def test_verify_sets_advances_time(self):
        pipeline = midar_pipeline(build_network())
        verdicts = pipeline.verify_sets([["10.0.1.1", "10.0.1.2"], ["10.0.2.1", "10.0.2.2"]])
        assert verdicts[1].started_at >= verdicts[0].finished_at
        assert all(verdict.agrees for verdict in verdicts)

    def test_churn_during_long_run_splits_sets(self):
        # The address moves to a different device before the MIDAR run starts.
        churn = ChurnModel([ChurnEvent(address="10.0.1.2", switch_time=10.0, new_device_id="shared-2")])
        pipeline = midar_pipeline(build_network(churn=churn))
        verdict = pipeline.verify_set(["10.0.1.1", "10.0.1.2"], start_time=100.0)
        assert verdict.testable
        assert not verdict.agrees

    def test_max_set_size_truncation(self):
        pipeline = midar_pipeline(build_network())
        members = [f"10.9.0.{i}" for i in range(1, 20)]
        verdict = pipeline.verify_set(members)
        assert len(verdict.candidate) == MIDAR_MAX_SET_SIZE


class TestAlly:
    def test_true_pair_detected(self):
        pipeline = ally_pipeline(build_network())
        verdict = pipeline.test_pair("10.0.1.1", "10.0.1.2")
        assert verdict.responded
        assert verdict.aliases

    def test_false_pair_rejected(self):
        pipeline = ally_pipeline(build_network())
        verdict = pipeline.test_pair("10.0.1.1", "10.0.2.1")
        assert verdict.responded
        assert not verdict.aliases

    def test_unresponsive_pair(self):
        pipeline = ally_pipeline(build_network())
        verdict = pipeline.test_pair("198.18.0.1", "198.18.0.2")
        assert not verdict.responded


class TestSpeedtrap:
    def test_ipv6_alias_set_confirmed(self):
        verdict = speedtrap_verdict(["2001:db80::11", "2001:db80::12"])
        assert verdict.testable
        assert verdict.agrees

    def test_ipv4_members_ignored(self):
        verdict = speedtrap_verdict(["10.0.1.1", "2001:db80::11", "2001:db80::12"])
        assert "10.0.1.1" not in verdict.candidate
