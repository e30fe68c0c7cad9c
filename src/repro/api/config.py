"""Session configuration.

:class:`ScenarioConfig` describes the evaluation scenario a session
reproduces: the topology's scale and the seed.  It lives in its own
module so the session facade, persistence and checkpointing can all
import it without a cycle.
"""

from __future__ import annotations

import dataclasses
import sys

from repro.simnet.topology import TopologyConfig
from repro.sources.hitlist import HitlistConfig


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of the evaluation scenario.

    ``scale`` multiplies the device counts of the default paper topology;
    1.0 gives a few tens of thousands of addresses, which reproduces every
    distributional result at laptop scale.  It must be a finite, positive
    number — the rule ``--scale`` applies — and the seed an integer, so a
    config read back from a session or checkpoint manifest is held to the
    same rules; each refusal names its field.  The paper measures one
    scenario, so its loss rate, hitlist coverages and Censys miss rate are
    module defaults, not settings.
    """

    scale: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        scale = self.scale
        # At most the largest float: finite, and an integer converts to one.
        if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not 0 < scale <= sys.float_info.max:
            raise ValueError(f"scale must be a finite, positive number, got {scale!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    def topology_config(self) -> TopologyConfig:
        """The topology configuration implied by this scenario config."""
        return TopologyConfig(seed=self.seed, scale=self.scale)

    def hitlist_config(self) -> HitlistConfig:
        """The IPv6 hitlist configuration implied by this scenario config."""
        return HitlistConfig(seed=self.seed)
