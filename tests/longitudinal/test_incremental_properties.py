"""Property tests: incremental state equals a from-scratch build of survivors.

Two layers are exercised with hypothesis-generated observation streams:

* :class:`~repro.core.engine.ObservationIndex` — interleaved add/remove
  sequences leave the index in exactly the state a fresh build of the
  surviving observations produces (``state_signature`` equality, multiset
  semantics included), and
* :class:`~repro.longitudinal.engine.LongitudinalEngine` — deriving
  snapshot A, then staging the diff to snapshot B and deriving again,
  yields a report identical to resolving B from scratch
  (:func:`~repro.core.engine.report_signature` equality).

Observation generation respects the documented ASN-stability constraint:
an address's ASN is a function of the address (as it is for every real
source in this repo, where ASNs come from routing data), though whether an
individual observation carries it at all varies.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ObservationIndex, ResolutionEngine, report_signature
from repro.longitudinal.delta import diff_observations
from repro.longitudinal.engine import LongitudinalEngine
from repro.simnet.device import ServiceType
from repro.sources.records import Observation

_IPV4 = [f"10.0.0.{i}" for i in range(1, 9)]
_IPV6 = [f"2001:db8::{i:x}" for i in range(1, 5)]
_DEVICES = ["alpha", "beta", "gamma"]


def _asn_for(address: str) -> int:
    """Deterministic per-address ASN (the documented stability constraint)."""
    return 65000 + sum(address.encode()) % 5


@st.composite
def _observation(draw):
    address = draw(st.sampled_from(_IPV4 + _IPV6))
    device = draw(st.sampled_from(_DEVICES))
    protocol = draw(st.sampled_from([ServiceType.SSH, ServiceType.SNMPV3, ServiceType.BGP]))
    carries_identifier = draw(st.booleans())
    carries_asn = draw(st.booleans())
    if protocol is ServiceType.SSH:
        fields = (
            ("banner", "SSH-2.0-OpenSSH_9.4"),
            ("capability_signature", f"caps-{device}"),
            ("host_key_fingerprint", f"key-{device}"),
        ) if carries_identifier else ()
        port = 22
    elif protocol is ServiceType.SNMPV3:
        fields = (
            ("engine_boots", "1"),
            ("engine_id", f"engine-{device}"),
        ) if carries_identifier else ()
        port = 161
    else:
        fields = (
            ("asn", "65000"),
            ("bgp_identifier", f"198.51.100.{1 + sum(device.encode()) % 9}"),
            ("capabilities", ""),
            ("hold_time", "90"),
            ("message_length", "45"),
            ("version", "4"),
        ) if carries_identifier else ()
        port = 179
    return Observation(
        address=address,
        protocol=protocol,
        source="hypothesis",
        port=port,
        timestamp=draw(st.floats(min_value=0.0, max_value=1e6)),
        asn=_asn_for(address) if carries_asn else None,
        fields=fields,
    )


_streams = st.lists(_observation(), min_size=0, max_size=30)


def _step(engine, previous, current):
    """Stage the delta from ``previous`` to ``current`` and derive."""
    delta = diff_observations(previous, current)
    engine.stage(delta.removed, delta.added)
    return engine.derive("s")


@settings(max_examples=60, deadline=None)
@given(
    stream=_streams,
    removals=st.sets(st.integers(min_value=0, max_value=29)),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_index_add_remove_equals_from_scratch_build(stream, removals, order_seed):
    """Interleaved add/remove == fresh build of the surviving observations."""
    operations = [("add", index) for index in range(len(stream))] + [
        ("remove", index) for index in sorted(removals) if index < len(stream)
    ]
    random.Random(order_seed).shuffle(operations)
    incremental = ObservationIndex()
    added: set[int] = set()
    deferred: list[int] = []
    for operation, index in operations:
        if operation == "add":
            incremental.add(stream[index])
            added.add(index)
            if index in deferred:
                deferred.remove(index)
                incremental.remove(stream[index])
        elif index in added:
            incremental.remove(stream[index])
        else:
            deferred.append(index)
    removed = {index for index in removals if index < len(stream)}
    survivors = [obs for index, obs in enumerate(stream) if index not in removed]
    assert (
        incremental.state_signature()
        == ObservationIndex.build(survivors).state_signature()
    )


@settings(max_examples=60, deadline=None)
@given(snapshot_a=_streams, snapshot_b=_streams)
def test_engine_delta_replay_equals_from_scratch_resolve(snapshot_a, snapshot_b):
    """derive(A), then stage(diff(A, B)) + derive == resolve(B)."""
    engine = LongitudinalEngine()
    _step(engine, [], snapshot_a)
    resolution = _step(engine, snapshot_a, snapshot_b)
    reference = ResolutionEngine().resolve(snapshot_b, name="s")
    assert report_signature(resolution.report) == report_signature(reference)


@settings(max_examples=30, deadline=None)
@given(snapshots=st.lists(_streams, min_size=2, max_size=4))
def test_engine_delta_chain_equals_from_scratch_resolve(snapshots):
    """Parity holds across a whole chain of deltas, not just one step."""
    engine = LongitudinalEngine()
    _step(engine, [], snapshots[0])
    previous = snapshots[0]
    resolution = None
    for snapshot in snapshots[1:]:
        resolution = _step(engine, previous, snapshot)
        previous = snapshot
    reference = ResolutionEngine().resolve(snapshots[-1], name="s")
    assert report_signature(resolution.report) == report_signature(reference)
