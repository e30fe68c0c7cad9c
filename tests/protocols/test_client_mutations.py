"""A scan client turns any server bytes into a record, and never raises.

Each case changes one to three bytes of what a simulated server sends (an
SSH greeting or key exchange reply, a BGP OPEN and NOTIFICATION, an SNMPv3
REPORT) and scans it; the SNMPv3 agent gets the same treatment with the
discovery request.  The mutations are drawn from a fixed seed, so every
run checks the same inputs.  A malformed server packet once escaped the
SSH client as a ``MalformedMessageError``, and an SNMPv3 field of the
wrong BER type escaped the client and the agent as a ``ValueError`` or
``TypeError``.
"""

import dataclasses
import random

import pytest

from repro.net.endpoint import LoopbackConnection, ServerBehavior
from repro.protocols.bgp.client import BgpScanClient, BgpScanRecord
from repro.protocols.bgp.speaker import BgpSpeakerConfig
from repro.protocols.snmp.client import SnmpScanClient, SnmpScanRecord
from repro.protocols.snmp.engine import SnmpEngineBehavior, SnmpEngineConfig
from repro.protocols.snmp.v3 import build_discovery_report, build_discovery_request
from repro.protocols.ssh.client import SshScanClient, SshScanRecord
from repro.protocols.ssh.hostkey import EcdsaHostKey, RsaHostKey
from repro.protocols.ssh.server import SshServerConfig

SEED = 36
MUTATIONS = 4000
ADDRESS = "192.0.2.50"


class _CannedServer(ServerBehavior):
    """Sends ``greeting`` on connect and ``reply`` to whatever the client sends."""

    def __init__(self, greeting: bytes, reply: bytes = b"") -> None:
        self._greeting = greeting
        self._reply = reply

    def on_connect(self) -> bytes:
        return self._greeting

    def on_data(self, data: bytes) -> bytes:
        return self._reply


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one to three bytes set to random values."""
    mutated = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        mutated[rng.randrange(len(mutated))] = rng.randrange(256)
    return bytes(mutated)


_SSH_CONFIGS = {
    "ed25519": SshServerConfig.generate("mutated-ssh"),
    "rsa": dataclasses.replace(SshServerConfig.generate("mutated-rsa"), host_key=RsaHostKey.generate("rsa")),
    "ecdsa": dataclasses.replace(
        SshServerConfig.generate("mutated-ecdsa"), host_key=EcdsaHostKey.generate("ecdsa")
    ),
}


@pytest.mark.parametrize("key", sorted(_SSH_CONFIGS))
def test_ssh_client_records_any_server_bytes(key):
    config = _SSH_CONFIGS[key]
    rng = random.Random(f"{SEED}-ssh-{key}")
    for _ in range(MUTATIONS):
        greeting, reply = config.greeting, config.kex_reply
        if rng.random() < 0.5:
            greeting = mutate(greeting, rng)
        else:
            reply = mutate(reply, rng)
        record = SshScanClient().scan(ADDRESS, LoopbackConnection(_CannedServer(greeting, reply)))
        assert isinstance(record, SshScanRecord)


def test_bgp_client_records_any_server_bytes():
    flight = BgpSpeakerConfig(asn=4_200_000_000, bgp_identifier="198.51.100.7").flight
    rng = random.Random(f"{SEED}-bgp")
    for _ in range(MUTATIONS):
        connection = LoopbackConnection(_CannedServer(mutate(flight, rng)))
        assert isinstance(BgpScanClient().scan(ADDRESS, connection), BgpScanRecord)


def test_snmp_client_records_any_server_bytes():
    config = SnmpEngineConfig.generate("mutated-snmp")
    report = build_discovery_report(1, config.engine_id, config.engine_boots, config.engine_time_base)
    rng = random.Random(f"{SEED}-snmp")
    for _ in range(MUTATIONS):
        connection = LoopbackConnection(_CannedServer(b"", mutate(report, rng)))
        assert isinstance(SnmpScanClient().scan(ADDRESS, connection), SnmpScanRecord)


def test_snmp_agent_answers_any_request_bytes():
    config = SnmpEngineConfig.generate("mutated-agent")
    request = build_discovery_request(1)
    rng = random.Random(f"{SEED}-agent")
    for _ in range(MUTATIONS):
        assert isinstance(SnmpEngineBehavior(config).on_data(mutate(request, rng)), bytes)
