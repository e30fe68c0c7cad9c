"""Address churn between measurement campaigns.

The paper's MIDAR validation disagrees with the SSH-derived sets for a few
percent of the sampled sets and attributes the disagreement to IP churn: the
MIDAR run took three weeks, during which some addresses moved to different
devices.  The churn model captures exactly that: an address is reassigned
from its original device to another device at a given simulation time, so
measurements taken before and after the switch observe different hardware.
"""

from __future__ import annotations

import dataclasses
import random


@dataclasses.dataclass(frozen=True)
class ChurnEvent:
    """One address reassignment.

    Attributes:
        address: the address that moves.
        switch_time: simulation time (seconds) at which the move happens.
        new_device_id: device that owns the address from ``switch_time`` on.
    """

    address: str
    switch_time: float
    new_device_id: str


class ChurnModel:
    """Holds every churn event and answers ownership queries."""

    def __init__(self, events: list[ChurnEvent] | None = None) -> None:
        self._events: dict[str, ChurnEvent] = {}
        for event in events or []:
            self.add(event)

    def add(self, event: ChurnEvent) -> None:
        """Register a churn event (one per address; the last one wins)."""
        self._events[event.address] = event

    def owner_override(self, address: str, now: float) -> str | None:
        """Return the overriding device id for ``address`` at time ``now``.

        ``None`` means the address still belongs to its original device.
        """
        event = self._events.get(address)
        if event is None or now < event.switch_time:
            return None
        return event.new_device_id

    def events(self) -> list[ChurnEvent]:
        """Every registered churn event, ordered by address.

        Lets campaign drivers merge sampled models into a network's live
        model and attribute measurement-window disruptions to the events
        whose switch times fall inside the window.
        """
        return [self._events[address] for address in sorted(self._events)]

    def __len__(self) -> int:
        return len(self._events)

    @classmethod
    def sample(
        cls,
        addresses: list[str],
        device_ids: list[str],
        fraction: float,
        switch_time: float,
        rng: random.Random,
    ) -> "ChurnModel":
        """Create a model where ``fraction`` of ``addresses`` move at ``switch_time``.

        Each churned address is reassigned to a device drawn uniformly from
        ``device_ids``.
        """
        model = cls()
        if not addresses or not device_ids or fraction <= 0:
            return model
        count = int(len(addresses) * fraction)
        for address in rng.sample(addresses, min(count, len(addresses))):
            model.add(
                ChurnEvent(
                    address=address,
                    switch_time=switch_time,
                    new_device_id=rng.choice(device_ids),
                )
            )
        return model
