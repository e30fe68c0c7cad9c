"""IPID time-series primitives shared by MIDAR, Ally and Speedtrap.

The IPID-based techniques all rest on the same idea: a router with a single,
shared, monotonically increasing IP-ID counter stamps packets from *any* of
its interfaces with values drawn from one sequence.  Sampling two candidate
addresses in an interleaved fashion and checking that the merged sample
sequence could have come from one bounded-velocity counter (the *monotonic
bounds test*) therefore provides evidence that the addresses are aliases.

The test fails — by design — for targets with per-interface counters, random
or constant IP-IDs, and counters so fast that they wrap between samples,
which is exactly why the paper finds that only 13% of its SSH-derived sets
can be verified by MIDAR at all.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.net.ipid import IPID_MODULUS
from repro.simnet.network import SimulatedInternet, VantagePoint


class TargetClass(enum.Enum):
    """Usability of a target for IPID-based alias resolution."""

    USABLE = "usable"                  # monotonic, bounded-velocity counter
    UNRESPONSIVE = "unresponsive"      # too few samples
    NON_MONOTONIC = "non_monotonic"    # random / constant / per-flow IPIDs
    TOO_FAST = "too_fast"              # wraps between samples (high velocity)


@dataclasses.dataclass
class IpidTimeSeries:
    """Samples of (time, ipid) collected from one address."""

    address: str
    samples: list[tuple[float, int]] = dataclasses.field(default_factory=list)

    def add(self, timestamp: float, ipid: int | None) -> None:
        """Record one sample; ``None`` (no response) is skipped."""
        if ipid is not None:
            self.samples.append((timestamp, ipid))

    @property
    def response_count(self) -> int:
        return len(self.samples)

    def velocity(self) -> float | None:
        """Estimated counter velocity in increments per second.

        Sums the forward (mod 2**16) differences of consecutive samples and
        divides by the elapsed time, so each wrap between observations adds
        one full modulus to the distance travelled — unlike a bare
        first-to-last difference, which would alias every whole wrap away.
        ``None`` when fewer than two samples are available or no time
        elapsed.
        """
        if len(self.samples) < 2:
            return None
        total = 0
        for (_, previous), (__, current) in zip(self.samples, self.samples[1:], strict=False):
            total += (current - previous) % IPID_MODULUS
        elapsed = self.samples[-1][0] - self.samples[0][0]
        if elapsed <= 0:
            return None
        return total / elapsed


def shared_counter_test(
    merged: list[tuple[float, int]],
    max_velocity: float,
    slack: float = 64.0,
) -> bool:
    """Monotonic bounds test over a time-ordered merged sample sequence.

    Every consecutive pair must show a forward (mod 2**16) difference no
    larger than what a counter of at most ``max_velocity`` increments per
    second could have produced in the elapsed time (plus ``slack`` for probe
    bursts).  A sequence drawn from two unrelated counters almost surely
    violates the bound at one of the interleaving boundaries.
    """
    ordered = sorted(merged, key=lambda sample: sample[0])
    for (previous_time, previous_value), (current_time, current_value) in zip(ordered, ordered[1:], strict=False):
        delta = (current_value - previous_value) % IPID_MODULUS
        allowed = max_velocity * max(current_time - previous_time, 0.0) + slack
        if delta > allowed:
            return False
    return True


def classify_series(
    series: IpidTimeSeries,
    min_responses: int = 3,
    max_velocity: float = 2_000.0,
) -> TargetClass:
    """Classify a target by its own time series (MIDAR's estimation stage)."""
    if series.response_count < min_responses:
        return TargetClass.UNRESPONSIVE
    if not shared_counter_test(series.samples, max_velocity=max_velocity):
        return TargetClass.NON_MONOTONIC
    velocity = series.velocity()
    if velocity is None:
        return TargetClass.UNRESPONSIVE
    if velocity == 0:
        # An IPID that never changes (commonly constant zero) carries no
        # signal; real MIDAR discards such targets as well.
        return TargetClass.NON_MONOTONIC
    if velocity > max_velocity:
        return TargetClass.TOO_FAST
    return TargetClass.USABLE


def collect_interleaved(
    network: SimulatedInternet,
    addresses: list[str],
    vantage: VantagePoint,
    rounds: int,
    interval: float,
    start_time: float,
) -> dict[str, IpidTimeSeries]:
    """Probe several addresses in an interleaved round-robin schedule.

    Interleaving is what gives the monotonic bounds test its power: samples
    from different addresses alternate in time, so a shared counter must
    thread them all into one increasing sequence.
    """
    series = {address: IpidTimeSeries(address=address) for address in addresses}
    step = 0
    for _ in range(rounds):
        for address in addresses:
            timestamp = start_time + step * interval
            series[address].add(timestamp, network.sample_ipid(address, vantage, now=timestamp))
            step += 1
    return series
