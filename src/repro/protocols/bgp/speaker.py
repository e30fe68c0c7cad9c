"""Configurable simulated BGP speaker.

The paper observes three behaviours for addresses with port 179 open:

* the overwhelming majority (5.8M addresses) close the connection right
  after the TCP handshake without sending anything,
* 364k addresses send an OPEN followed by a NOTIFICATION (Cease /
  Connection Rejected) and then close, and
* the remainder stay silent until the scanner's two-second timeout.

:class:`BgpSpeakerStyle` captures those behaviours; the speaker's OPEN
content comes from the device-wide :class:`BgpSpeakerConfig`.
"""

from __future__ import annotations

import dataclasses
import enum
import functools

from repro.net.endpoint import ServerBehavior
from repro.protocols.bgp.capabilities import Capability
from repro.protocols.bgp.messages import AS_TRANS, BgpNotification, BgpOpen


class BgpSpeakerStyle(enum.Enum):
    """Observable behaviour of a BGP speaker toward an unknown peer."""

    OPEN_THEN_NOTIFY = "open_then_notify"   # sends OPEN + NOTIFICATION, closes
    CLOSE_IMMEDIATELY = "close_immediately"  # closes right after the handshake
    SILENT = "silent"                        # says nothing until timeout


@dataclasses.dataclass(frozen=True)
class BgpSpeakerConfig:
    """Device-wide BGP configuration.

    Attributes:
        asn: the speaker's autonomous system number (may need four octets).
        bgp_identifier: the device-wide BGP Identifier in dotted-quad form.
        hold_time: configured hold time.
        capabilities: capabilities advertised in the OPEN message.
        style: observable behaviour toward unsolicited peers.
    """

    asn: int = 64512
    bgp_identifier: str = "0.0.0.0"
    hold_time: int = 90
    capabilities: tuple[Capability, ...] = (
        Capability.route_refresh_cisco(),
        Capability.route_refresh(),
    )
    style: BgpSpeakerStyle = BgpSpeakerStyle.OPEN_THEN_NOTIFY

    def open_message(self) -> BgpOpen:
        """Build the OPEN message this speaker sends to unsolicited peers."""
        capabilities = list(self.capabilities)
        if self.asn > 0xFFFF:
            my_as = AS_TRANS
            capabilities = capabilities + [Capability.four_octet_as(self.asn)]
        else:
            my_as = self.asn
        return BgpOpen(
            version=4,
            my_as=my_as,
            hold_time=self.hold_time,
            bgp_identifier=self.bgp_identifier,
            capabilities=tuple(capabilities),
        )

    @functools.cached_property
    def flight(self) -> bytes:
        """The OPEN + NOTIFICATION an ``OPEN_THEN_NOTIFY`` speaker sends.

        A pure function of this frozen config, encoded once and shared by
        every connection to the device.
        """
        return self.open_message().build() + BgpNotification().build()


class BgpSpeakerBehavior(ServerBehavior):
    """Per-connection behaviour of a simulated BGP speaker."""

    def __init__(self, config: BgpSpeakerConfig) -> None:
        self._config = config
        self._closed = False

    def on_connect(self) -> bytes:
        style = self._config.style
        if style is BgpSpeakerStyle.CLOSE_IMMEDIATELY:
            self._closed = True
            return b""
        if style is BgpSpeakerStyle.SILENT:
            return b""
        self._closed = True
        return self._config.flight

    def on_data(self, data: bytes) -> bytes:
        # An unsolicited peer sending data does not change the behaviour; a
        # speaker that already rejected the session stays closed.
        return b""

    @property
    def closed(self) -> bool:
        return self._closed
