"""Hypothesis property tests for the probe budget and the bank it reads.

Two invariants the validation docstrings promise:

* **Staleness honesty** — a re-validation whose gap since the banked
  collections is within :data:`~repro.validation.budget.
  DEFAULT_VELOCITY_TTL` re-scores with zero fresh probes and
  byte-identical decisions; a gap beyond it always goes back to the
  network (an expired entry is never silently reused).
* **Scheduler determinism** — the same candidates under the same budget
  produce the same verdicts, probing windows and all, and the same
  budget on every run; nothing in the largest-first scheduler depends on
  iteration order, hashing, or wall clock.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ipid import MonotonicIpidCounter, RandomIpidCounter
from repro.simnet.asn import AsRegistry, AsRole, AutonomousSystem
from repro.simnet.device import Device, DeviceRole, Interface
from repro.simnet.network import SimulatedInternet
from repro.validation.budget import DEFAULT_VELOCITY_TTL, ProbeBudget
from repro.validation.runner import ValidationRun, run_validator
from repro.validation.spec import midar


#: Every probe-responsive address of the property network, grouped by device.
DEVICE_ADDRESSES = {
    "shared": ("10.1.0.1", "10.1.0.2", "10.1.0.3"),
    "shared-2": ("10.2.0.1", "10.2.0.2"),
    "random": ("10.3.0.1", "10.3.0.2"),
}
ALL_ADDRESSES = tuple(
    address for addresses in DEVICE_ADDRESSES.values() for address in addresses
)


def build_network():
    registry = AsRegistry()
    registry.add(AutonomousSystem(asn=200, name="ISP", role=AsRole.ISP))
    devices = [
        Device(
            device_id="shared",
            role=DeviceRole.CORE_ROUTER,
            home_asn=200,
            interfaces=[
                Interface(name=f"i{i}", address=address, asn=200)
                for i, address in enumerate(DEVICE_ADDRESSES["shared"])
            ],
            ipid_counter=MonotonicIpidCounter(start=500, velocity=5.0, jitter=0),
        ),
        Device(
            device_id="shared-2",
            role=DeviceRole.CORE_ROUTER,
            home_asn=200,
            interfaces=[
                Interface(name=f"i{i}", address=address, asn=200)
                for i, address in enumerate(DEVICE_ADDRESSES["shared-2"])
            ],
            ipid_counter=MonotonicIpidCounter(start=30000, velocity=5.0, jitter=0),
        ),
        Device(
            device_id="random",
            role=DeviceRole.SERVER,
            home_asn=200,
            interfaces=[
                Interface(name=f"i{i}", address=address, asn=200)
                for i, address in enumerate(DEVICE_ADDRESSES["random"])
            ],
            ipid_counter=RandomIpidCounter(rng=random.Random(7)),
        ),
    ]
    return SimulatedInternet(registry=registry, devices=devices, seed=1, loss_rate=0.0)


def _count_probes(network):
    counter = {"probes": 0}
    original = network.sample_ipid

    def counting(address, vantage, now=0.0):
        counter["probes"] += 1
        return original(address, vantage, now=now)

    network.sample_ipid = counting
    return counter


def _decisions(report):
    return [(v.candidate, v.testable, v.agrees, v.partition) for v in report.verdicts]


candidate_sets = st.lists(
    st.frozensets(st.sampled_from(ALL_ADDRESSES), min_size=2, max_size=4),
    min_size=1,
    max_size=4,
    unique=True,
).map(tuple)


@given(
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    within=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_staleness_bound_is_honest(fraction, within):
    """Within the ttl: free, identical re-score.  Beyond it: live re-probe.

    Freshness is judged per collection against *its* collection time, so
    "within" means the whole first run plus the gap fits inside the ttl,
    and "beyond" puts the gap past the ttl of even the first run's last
    collection.
    """
    ttl = DEFAULT_VELOCITY_TTL
    spec = midar()
    candidates = (frozenset(DEVICE_ADDRESSES["shared"]),)
    network = build_network()
    run = ValidationRun(network)
    run.budget = ProbeBudget()
    first = run_validator(run, spec, candidates=candidates, start_time=0.0)
    counter = _count_probes(network)
    if within:
        gap = (ttl - first.finished_at) * fraction
    else:
        # Past the ttl even for the last collection of the first run.
        gap = ttl + first.finished_at + 1.0 + fraction * ttl
    second = run_validator(run, spec, candidates=candidates, start_time=gap)
    if within:
        assert counter["probes"] == 0, "a fresh entry must re-score without probing"
        assert _decisions(second) == _decisions(first)
    else:
        assert counter["probes"] > 0, "an expired entry must never be silently reused"


@given(candidates=candidate_sets, budget=st.one_of(st.none(), st.integers(min_value=0, max_value=150)))
@settings(max_examples=25, deadline=None)
def test_scheduler_is_deterministic(candidates, budget):
    """Same candidates + same budget -> same verdicts, same spend."""
    spec = midar()

    def one_run():
        run = ValidationRun(build_network())
        run.budget = ProbeBudget(limit=budget)
        report = run_validator(run, spec, candidates=candidates, start_time=0.0)
        return run.budget, report

    first_budget, first_report = one_run()
    second_budget, second_report = one_run()
    # Each verdict carries its probing window, so equal verdicts mean the
    # sets were probed in the same order at the same simulated times.
    assert first_report.verdicts == second_report.verdicts
    assert first_budget == second_budget
