"""End-to-end tests of the SSH server behaviour and scanning client."""

import base64
import hashlib
import struct

import pytest

from repro.net.endpoint import LoopbackConnection, ServerBehavior
from repro.protocols.ssh.banner import SshBanner
from repro.protocols.ssh.client import SshScanClient
from repro.protocols.ssh.kex import KexInit
from repro.protocols.ssh.messages import KexEcdhReply
from repro.protocols.ssh.server import SshServerBehavior, SshServerConfig, SshServerStyle
from repro.protocols.ssh.wire import SshWriter, frame_packet


def scan(config):
    connection = LoopbackConnection(SshServerBehavior(config))
    return SshScanClient().scan("192.0.2.10", connection)


class TestKexEcdhReply:
    def test_roundtrip(self):
        config = SshServerConfig.generate("device-1")
        reply = KexEcdhReply.for_host_key(config.host_key.encode_blob(), seed="device-1")
        parsed = KexEcdhReply.parse(reply.build())
        assert parsed.host_key_blob == config.host_key.encode_blob()


class TestFullHandshake:
    def test_scan_collects_banner_kex_and_hostkey(self):
        config = SshServerConfig.generate("device-2", banner=SshBanner(softwareversion="OpenSSH_9.0"))
        record = scan(config)
        assert record.success
        assert record.banner == "SSH-2.0-OpenSSH_9.0"
        assert record.kex_init is not None
        assert record.host_key_algorithm == "ssh-ed25519"
        assert record.host_key_fingerprint == config.host_key.fingerprint()
        assert record.has_identifier

    def test_capability_signature_matches_server_config(self):
        config = SshServerConfig.generate("device-3")
        record = scan(config)
        assert record.capability_signature == config.kex_init.capability_signature()

    def test_same_config_two_addresses_same_material(self):
        config = SshServerConfig.generate("device-4")
        record_a = SshScanClient().scan("192.0.2.20", LoopbackConnection(SshServerBehavior(config)))
        record_b = SshScanClient().scan("192.0.2.21", LoopbackConnection(SshServerBehavior(config)))
        assert record_a.host_key_fingerprint == record_b.host_key_fingerprint
        assert record_a.capability_signature == record_b.capability_signature

    def test_distinct_devices_have_distinct_hostkeys(self):
        record_a = scan(SshServerConfig.generate("device-5"))
        record_b = scan(SshServerConfig.generate("device-6"))
        assert record_a.host_key_fingerprint != record_b.host_key_fingerprint


class TestDegradedServers:
    def test_banner_only_server(self):
        config = SshServerConfig.generate("device-7", style=SshServerStyle.BANNER_ONLY)
        record = scan(config)
        assert record.success
        assert record.banner is not None
        assert record.host_key_fingerprint is None
        assert not record.has_identifier

    def test_silent_server(self):
        config = SshServerConfig.generate("device-8", style=SshServerStyle.SILENT)
        record = scan(config)
        assert not record.success
        assert record.banner is None

    def test_custom_kexinit_preserved(self):
        kex = KexInit(
            cookie=b"\x11" * 16,
            kex_algorithms=("diffie-hellman-group14-sha1",),
            server_host_key_algorithms=("ssh-rsa",),
        )
        config = SshServerConfig.generate("device-9", kex_init=kex)
        record = scan(config)
        assert record.kex_init.kex_algorithms == ("diffie-hellman-group14-sha1",)


class _RawKexReplyServer(ServerBehavior):
    """Sends a well-formed banner and KEXINIT, then a KEX reply with ``host_key_blob``."""

    def __init__(self, host_key_blob: bytes) -> None:
        self._host_key_blob = host_key_blob

    def on_connect(self) -> bytes:
        return SshBanner().render_wire() + frame_packet(KexInit().build())

    def on_data(self, data: bytes) -> bytes:
        return frame_packet(KexEcdhReply(host_key_blob=self._host_key_blob).build())

    @property
    def closed(self) -> bool:
        return False


class TestMalformedHostKey:
    """An unparseable host-key blob degrades the record; the scan never raises."""

    @pytest.mark.parametrize(
        "blob",
        [
            # ssh-ed25519 with a 5-byte key (MalformedMessageError at parse).
            SshWriter().write_string(b"ssh-ed25519").write_string(b"\x01" * 5).getvalue(),
            # ssh-ed25519 whose key string is cut short (TruncatedMessageError).
            SshWriter().write_string(b"ssh-ed25519").getvalue() + struct.pack(">I", 32) + b"\x01" * 5,
        ],
        ids=["short-ed25519-key", "truncated-key-string"],
    )
    def test_unparseable_blob_is_no_host_key(self, blob):
        record = SshScanClient().scan("192.0.2.30", LoopbackConnection(_RawKexReplyServer(blob)))
        assert record.success
        assert record.banner == SshBanner().render()
        assert record.capability_signature == KexInit().capability_signature()
        assert record.host_key_algorithm is None
        assert record.host_key_blob is None
        assert record.host_key_fingerprint is None
        assert not record.has_identifier


class TestFingerprintOfTheSentBlob:
    """The fingerprint is the SHA-256 of the blob the server sent, even
    where a parse and re-encode of the key would give other bytes."""

    @pytest.mark.parametrize(
        ("blob", "algorithm"),
        [
            (
                SshWriter()
                .write_string(b"ssh-rsa")
                .write_string(b"\x00\x00\x01\x00\x01")
                .write_mpint((1 << 1023) | 1)
                .getvalue(),
                "ssh-rsa",
            ),
            (
                SshWriter().write_string(b"ssh-ed25519").write_string(b"\x07" * 32).getvalue()
                + b"trailing",
                "ssh-ed25519",
            ),
        ],
        ids=["rsa-zero-padded-exponent", "ed25519-trailing-bytes"],
    )
    def test_fingerprint_hashes_the_wire_blob(self, blob, algorithm):
        record = SshScanClient().scan("192.0.2.31", LoopbackConnection(_RawKexReplyServer(blob)))
        digest = base64.b64encode(hashlib.sha256(blob).digest()).decode("ascii").rstrip("=")
        assert record.host_key_algorithm == algorithm
        assert record.host_key_blob == blob
        assert record.host_key_fingerprint == f"SHA256:{digest}"


class _CannedServer(ServerBehavior):
    """Sends ``greeting`` on connect and ``reply`` to whatever the client sends."""

    def __init__(self, greeting: bytes, reply: bytes) -> None:
        self._greeting = greeting
        self._reply = reply

    def on_connect(self) -> bytes:
        return self._greeting

    def on_data(self, data: bytes) -> bytes:
        return self._reply

    @property
    def closed(self) -> bool:
        return False


def _padding_length(packet: bytes, value: int) -> bytes:
    """``packet`` with its padding-length byte set to ``value``."""
    return packet[:4] + bytes((value,)) + packet[5:]


class TestMalformedPackets:
    """A malformed server packet ends the read like a truncated one; the scan
    keeps what it parsed before the packet and never raises."""

    config = SshServerConfig.generate("device-10")
    banner = config.banner.render_wire()
    kex_packet = config.greeting[len(banner):]

    def _scan(self, greeting, reply):
        return SshScanClient().scan("192.0.2.40", LoopbackConnection(_CannedServer(greeting, reply)))

    @pytest.mark.parametrize("padding", [255, 254], ids=["padding-255", "padding-254"])
    def test_malformed_reply_keeps_the_kexinit(self, padding):
        # The reply packet is shorter than 254 bytes, so its padding cannot fit.
        assert struct.unpack(">I", self.config.kex_reply[:4])[0] < padding + 1
        record = self._scan(self.config.greeting, _padding_length(self.config.kex_reply, padding))
        assert record.success
        assert record.banner == self.config.banner.render()
        assert record.capability_signature == self.config.kex_init.capability_signature()
        assert record.host_key_fingerprint is None
        assert not record.has_identifier

    def test_malformed_reply_degrades_as_a_truncated_one(self):
        malformed = self._scan(self.config.greeting, _padding_length(self.config.kex_reply, 255))
        truncated = self._scan(self.config.greeting, self.config.kex_reply[:-1])
        assert malformed == truncated

    def test_malformed_kexinit_drops_the_packets_after_it(self):
        # A packet length of 16 cannot hold 255 bytes of padding.
        greeting = self.banner + struct.pack(">IB", 16, 255) + self.kex_packet[5:]
        record = self._scan(greeting, self.config.kex_reply)
        assert record.success
        assert record.banner == self.config.banner.render()
        assert record.kex_init is None
        assert record.capability_signature is None
        assert record.host_key_fingerprint is None
