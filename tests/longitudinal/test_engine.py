"""Tests for the incremental LongitudinalEngine."""

from repro.core.engine import ResolutionEngine, report_signature
from repro.longitudinal.delta import diff_observations
from repro.longitudinal.engine import LongitudinalEngine
from repro.simnet.device import ServiceType
from repro.sources.records import Observation


def ssh_observation(address, device="device-a", asn=None):
    return Observation(
        address=address,
        protocol=ServiceType.SSH,
        source="test",
        port=22,
        asn=asn,
        fields=(
            ("banner", "SSH-2.0-OpenSSH_9.4"),
            ("capability_signature", f"caps-{device}"),
            ("host_key_fingerprint", f"key-{device}"),
        ),
    )


def snmp_observation(address, device="device-a", asn=None):
    return Observation(
        address=address,
        protocol=ServiceType.SNMPV3,
        source="test",
        port=161,
        asn=asn,
        fields=(("engine_boots", "1"), ("engine_id", f"engine-{device}")),
    )


SNAPSHOT_0 = [
    ssh_observation("10.0.0.1", "alpha", asn=65001),
    ssh_observation("10.0.0.2", "alpha", asn=65001),
    ssh_observation("2001:db8::1", "alpha", asn=65001),
    ssh_observation("10.0.0.3", "beta", asn=65002),
    snmp_observation("10.0.0.3", "beta", asn=65002),
    snmp_observation("10.0.0.4", "beta", asn=65002),
    ssh_observation("10.0.0.9", "gamma"),
]

# 10.0.0.2 churns from device alpha to device beta; gamma goes dark;
# a brand-new device appears.
SNAPSHOT_1 = [
    ssh_observation("10.0.0.1", "alpha", asn=65001),
    ssh_observation("2001:db8::1", "alpha", asn=65001),
    ssh_observation("10.0.0.2", "beta", asn=65001),
    ssh_observation("10.0.0.3", "beta", asn=65002),
    snmp_observation("10.0.0.3", "beta", asn=65002),
    snmp_observation("10.0.0.4", "beta", asn=65002),
    ssh_observation("10.0.0.7", "delta"),
    ssh_observation("10.0.0.8", "delta"),
]


def step(engine, previous, current, name):
    """Stage the delta from ``previous`` to ``current``, then derive ``name``."""
    delta = diff_observations(previous, current)
    engine.stage(delta.removed, delta.added)
    return engine.derive(name)


def test_bootstrap_matches_from_scratch():
    engine = LongitudinalEngine()
    resolution = step(engine, [], SNAPSHOT_0, "s0")
    reference = ResolutionEngine().resolve(SNAPSHOT_0, name="s0")
    assert report_signature(resolution.report) == report_signature(reference)


def test_apply_matches_from_scratch():
    engine = LongitudinalEngine()
    step(engine, [], SNAPSHOT_0, "s0")
    resolution = step(engine, SNAPSHOT_0, SNAPSHOT_1, "s1")
    reference = ResolutionEngine().resolve(SNAPSHOT_1, name="s1")
    assert report_signature(resolution.report) == report_signature(reference)


def test_apply_back_and_forth_restores_original_report():
    engine = LongitudinalEngine()
    first = step(engine, [], SNAPSHOT_0, "s")
    step(engine, SNAPSHOT_0, SNAPSHOT_1, "s")
    restored = step(engine, SNAPSHOT_1, SNAPSHOT_0, "s")
    assert report_signature(restored.report) == report_signature(first.report)


def test_alias_delta_reports_churn_movement():
    engine = LongitudinalEngine()
    step(engine, [], SNAPSHOT_0, "s")
    resolution = step(engine, SNAPSHOT_0, SNAPSHOT_1, "s")
    delta = resolution.ipv4_delta
    # Device delta's pair is brand new.
    assert frozenset({"10.0.0.7", "10.0.0.8"}) in delta.born
    # 10.0.0.2 moved from alpha to beta: the combined coverage of its two
    # matched previous sets ({1,2} and {3,4}) lost 10.0.0.1 (now a
    # singleton), so the surviving {2,3,4} classifies as shrunk and alpha's
    # old set is disrupted.
    assert frozenset({"10.0.0.2", "10.0.0.3", "10.0.0.4"}) in delta.shrunk
    assert frozenset({"10.0.0.1", "10.0.0.2"}) in delta.disrupted_previous


def test_report_property_tracks_latest():
    engine = LongitudinalEngine()
    assert engine.report is None
    step(engine, [], SNAPSHOT_0, "s0")
    assert engine.report is not None and engine.report.name == "s0"
    step(engine, SNAPSHOT_0, SNAPSHOT_1, "s1")
    assert engine.report.name == "s1"
