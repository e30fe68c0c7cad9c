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


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of the evaluation scenario.

    ``scale`` multiplies the device counts of the default paper topology;
    1.0 gives a few tens of thousands of addresses, which reproduces every
    distributional result at laptop scale.  It must be a finite, positive
    number — the rule ``--scale`` applies — so a config read back from a
    manifest is held to it too.
    """

    scale: float = 1.0
    seed: int = 42
    loss_rate: float = 0.01
    hitlist_server_coverage: float = 0.8
    hitlist_router_coverage: float = 0.4
    censys_miss_rate: float = 0.12

    def __post_init__(self) -> None:
        scale = self.scale
        number = isinstance(scale, (int, float)) and not isinstance(scale, bool)
        if not (number and math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be a finite, positive number, got {scale!r}")

    def topology_config(self) -> TopologyConfig:
        """The topology configuration implied by this scenario config."""
        return TopologyConfig(seed=self.seed, scale=self.scale, loss_rate=self.loss_rate)
