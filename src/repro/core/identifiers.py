"""Host identifiers extracted from service observations.

The key idea of the paper: some application-layer values are properties of
the *device*, not of the probed interface, so addresses whose responses share
those values can be grouped into alias sets.

* **SSH** — the service banner, the algorithm lists advertised in preference
  order (hashed into a capability signature), and the server host key.  The
  host key alone is almost unique, but combining it with the capabilities
  splits hosts that share factory-default keys yet run different
  configurations (the paper measures 0.4% of non-singleton hosts differing
  in capabilities).
* **BGP** — the BGP Identifier, the ASN, the hold time, the version, the
  OPEN message length, and the advertised capabilities.
* **SNMPv3** — the authoritative engine ID (the prior-work baseline this
  paper complements).

Each extractor computes the identifier's value string.  The index reads the
value alone through :func:`identifier_value`; :func:`extract_identifier`
and the per-protocol functions wrap it in a :class:`DeviceIdentifier` for
their callers.  The extraction hooks (:func:`count_extractions`) fire once
per extraction through either entry point.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from typing import Callable, Iterator

from repro.simnet.device import ServiceType
from repro.sources.records import Observation


@dataclasses.dataclass(frozen=True)
class DeviceIdentifier:
    """A host-wide identifier derived from one protocol's response."""

    protocol: ServiceType
    value: str

    def short(self) -> str:
        """A compact rendering for reports."""
        return f"{self.protocol.value}:{self.value[:16]}"


@dataclasses.dataclass(frozen=True)
class IdentifierOptions:
    """Knobs for identifier construction (the paper-scale ablations vary them).

    Attributes:
        ssh_include_banner: include the service banner in the SSH identifier.
        ssh_include_capabilities: include the algorithm capability signature
            in the SSH identifier (the paper's recommended construction).
        bgp_include_capabilities: include the capability list in the BGP
            identifier.
        bgp_include_hold_time: include the hold time in the BGP identifier.
    """

    ssh_include_banner: bool = True
    ssh_include_capabilities: bool = True
    bgp_include_capabilities: bool = True
    bgp_include_hold_time: bool = True


DEFAULT_OPTIONS = IdentifierOptions()


def _digest(*parts: str) -> str:
    joined = "\x00".join(parts)
    return hashlib.sha256(joined.encode("utf-8", errors="replace")).hexdigest()


def _ssh_value(observation: Observation, options: IdentifierOptions) -> str | None:
    fields = dict(observation.fields)
    fingerprint = fields.get("host_key_fingerprint")
    if fingerprint is None:
        return None
    parts = [fingerprint]
    if options.ssh_include_banner:
        parts.append(fields.get("banner", ""))
    if options.ssh_include_capabilities:
        capability_signature = fields.get("capability_signature")
        if capability_signature is None:
            return None
        parts.append(capability_signature)
    return _digest(*parts)


def _bgp_value(observation: Observation, options: IdentifierOptions) -> str | None:
    fields = dict(observation.fields)
    bgp_id = fields.get("bgp_identifier")
    if bgp_id is None:
        return None
    parts = [
        bgp_id,
        fields.get("asn", ""),
        fields.get("version", ""),
        fields.get("message_length", ""),
    ]
    if options.bgp_include_hold_time:
        parts.append(fields.get("hold_time", ""))
    if options.bgp_include_capabilities:
        parts.append(fields.get("capabilities", ""))
    return _digest(*parts)


def _snmp_value(observation: Observation, options: IdentifierOptions) -> str | None:
    return observation.field("engine_id")


def _identifier(protocol: ServiceType, value: str | None) -> DeviceIdentifier | None:
    return None if value is None else DeviceIdentifier(protocol=protocol, value=value)


def ssh_identifier(
    observation: Observation, options: IdentifierOptions = DEFAULT_OPTIONS
) -> DeviceIdentifier | None:
    """Build the SSH identifier for an observation, if possible.

    Requires at least the host key fingerprint; the banner and the capability
    signature are added according to ``options``.
    """
    return _identifier(ServiceType.SSH, _ssh_value(observation, options))


def bgp_identifier(
    observation: Observation, options: IdentifierOptions = DEFAULT_OPTIONS
) -> DeviceIdentifier | None:
    """Build the BGP identifier for an observation, if an OPEN was received."""
    return _identifier(ServiceType.BGP, _bgp_value(observation, options))


def snmp_identifier(
    observation: Observation, options: IdentifierOptions = DEFAULT_OPTIONS
) -> DeviceIdentifier | None:
    """Build the SNMPv3 identifier (the engine ID) for an observation."""
    return _identifier(ServiceType.SNMPV3, _snmp_value(observation, options))


#: The identifier value's extractor per protocol.
_VALUES = {
    ServiceType.SSH: _ssh_value,
    ServiceType.BGP: _bgp_value,
    ServiceType.SNMPV3: _snmp_value,
}

#: Observers notified on every extraction, through :func:`identifier_value`
#: or :func:`extract_identifier`.  Tests use them to pin extraction counts:
#: the single-pass engine extracts each observation's identifier exactly
#: once, a delta replay each added and each removed observation's once.
_extraction_hooks: list[Callable[[Observation], None]] = []


class ExtractionCounter:
    """Counts identifier extractions while installed as a hook."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, observation: Observation) -> None:
        self.count += 1


@contextlib.contextmanager
def count_extractions() -> Iterator[ExtractionCounter]:
    """Count identifier extractions performed inside the ``with`` block.

    Each :func:`identifier_value` or :func:`extract_identifier` call counts
    once.

    Process-global and intended for single-threaded test use:
    concurrent or nested contexts each observe every extraction in the
    process, not just their own.
    """
    counter = ExtractionCounter()
    _extraction_hooks.append(counter)
    try:
        yield counter
    finally:
        _extraction_hooks.remove(counter)


def identifier_value(
    observation: Observation, options: IdentifierOptions = DEFAULT_OPTIONS
) -> str | None:
    """The value of the identifier appropriate for the observation's protocol.

    Returns ``None`` when the observation does not carry enough material
    (e.g. a BGP speaker that closed without an OPEN, or an SSH server that
    only sent a banner).  The index keys on the value alone, as a value
    belongs to the observation's protocol, so it builds no
    :class:`DeviceIdentifier` per observation.
    """
    if _extraction_hooks:
        for hook in _extraction_hooks:
            hook(observation)
    return _VALUES[observation.protocol](observation, options)


def extract_identifier(
    observation: Observation, options: IdentifierOptions = DEFAULT_OPTIONS
) -> DeviceIdentifier | None:
    """Build the identifier appropriate for the observation's protocol.

    :func:`identifier_value`, stamped with the observation's protocol;
    ``None`` where that is.
    """
    return _identifier(observation.protocol, identifier_value(observation, options))
