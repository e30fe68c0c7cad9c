"""Session configuration.

:class:`ScenarioConfig` describes the evaluation scenario a session
reproduces — topology scale and seed plus the knobs of the built-in
sources.  It lives in its own module so the session facade, persistence
and checkpointing can all import it without a cycle.
"""

from __future__ import annotations

import dataclasses
import math

from repro.simnet.topology import TopologyConfig
from repro.sources.hitlist import HitlistConfig

#: The fields that are rates or coverages, so fractions in [0, 1].
_FRACTIONS = (
    "loss_rate",
    "hitlist_server_coverage",
    "hitlist_router_coverage",
    "censys_miss_rate",
)


def _is_number(value: object) -> bool:
    """A finite int or float that is not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value)


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of the evaluation scenario.

    ``scale`` multiplies the device counts of the default paper topology;
    1.0 gives a few tens of thousands of addresses, which reproduces every
    distributional result at laptop scale.  It must be a finite, positive
    number — the rule ``--scale`` applies — the seed an integer, and the
    rates and coverages fractions in [0, 1], so a config read back from a
    session or checkpoint manifest is held to the same rules; each refusal
    names its field.
    """

    scale: float = 1.0
    seed: int = 42
    loss_rate: float = 0.01
    hitlist_server_coverage: float = 0.8
    hitlist_router_coverage: float = 0.4
    censys_miss_rate: float = 0.12

    def __post_init__(self) -> None:
        scale = self.scale
        if not (_is_number(scale) and scale > 0):
            raise ValueError(f"scale must be a finite, positive number, got {scale!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for name in _FRACTIONS:
            value = getattr(self, name)
            if not (_is_number(value) and 0 <= value <= 1):
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")

    def topology_config(self) -> TopologyConfig:
        """The topology configuration implied by this scenario config."""
        return TopologyConfig(seed=self.seed, scale=self.scale, loss_rate=self.loss_rate)

    def hitlist_config(self) -> HitlistConfig:
        """The IPv6 hitlist configuration implied by this scenario config."""
        return HitlistConfig(
            server_coverage=self.hitlist_server_coverage,
            router_coverage=self.hitlist_router_coverage,
            seed=self.seed,
        )
