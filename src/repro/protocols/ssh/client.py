"""SSH scanning client (ZGrab2 SSH module equivalent).

The client drives the pre-encryption part of the SSH handshake against a
:class:`~repro.net.endpoint.Connection` and produces an
:class:`SshScanRecord` with everything the paper's identifier needs: the
server banner, the ordered algorithm capability lists, and the host key blob
and fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.errors import ProtocolError
from repro.net.endpoint import Connection
from repro.protocols.ssh.banner import SshBanner
from repro.protocols.ssh.hostkey import blob_fingerprint, parse_host_key_blob
from repro.protocols.ssh.kex import SSH_MSG_KEXINIT, KexInit
from repro.protocols.ssh.messages import SSH_MSG_KEX_ECDH_REPLY, KexEcdhInit, KexEcdhReply
from repro.protocols.ssh.wire import frame_packet, iter_packets

CLIENT_BANNER = SshBanner(softwareversion="repro-scanner_1.0")


@dataclasses.dataclass(frozen=True)
class SshScanRecord:
    """The result of one SSH service scan against one address.

    Attributes:
        address: the scanned address (canonical string).
        port: TCP port scanned (22 unless stated otherwise).
        success: whether a banner was received at all.
        banner: raw banner line (without CRLF) or ``None``.
        kex_init: parsed server KEXINIT, if observed.
        host_key_algorithm: algorithm name of the host key, if observed.
        host_key_blob: raw public key blob, if observed.
        host_key_fingerprint: OpenSSH-style SHA256 fingerprint, if observed.
        capability_signature: hash over the ordered algorithm lists.
    """

    address: str
    port: int = 22
    success: bool = False
    banner: str | None = None
    kex_init: KexInit | None = None
    host_key_algorithm: str | None = None
    host_key_blob: bytes | None = None
    host_key_fingerprint: str | None = None
    capability_signature: str | None = None

    @property
    def has_identifier(self) -> bool:
        """Whether enough material was collected to build an SSH identifier."""
        return self.host_key_fingerprint is not None and self.capability_signature is not None


class SshScanClient:
    """Drives the SSH pre-encryption handshake and extracts scan records."""

    def __init__(self, client_banner: SshBanner = CLIENT_BANNER) -> None:
        self._client_banner = client_banner

    def scan(self, address: str, connection: Connection, port: int = 22) -> SshScanRecord:
        """Scan ``address`` over ``connection`` and return the record.

        The client mirrors ZGrab2's behaviour: read the server banner and
        KEXINIT, send its own banner, KEXINIT, and ECDH init, then read the
        key exchange reply to obtain the host key.  Malformed or truncated
        server data degrades the record (``success``/fields) instead of
        raising, because a scan must never abort a campaign.
        """
        initial = connection.receive()
        banner, remainder = self._split_banner(initial)
        if banner is None:
            return SshScanRecord(address=address, port=port, success=False)

        client_kex = KexInit(cookie=hashlib.sha256(f"client:{address}".encode()).digest()[:16])
        try:
            connection.send(
                self._client_banner.render_wire()
                + frame_packet(client_kex.build())
                + frame_packet(KexEcdhInit().build())
            )
            response = connection.receive()
        except ProtocolError:
            response = b""
        finally:
            connection.close()

        server_kex: KexInit | None = None
        kex_reply: KexEcdhReply | None = None
        for payload in iter_packets(remainder + response):
            if not payload:
                continue
            code = payload[0]
            if code == SSH_MSG_KEXINIT and server_kex is None:
                try:
                    server_kex = KexInit.parse(payload)
                except ProtocolError:
                    server_kex = None
            elif code == SSH_MSG_KEX_ECDH_REPLY and kex_reply is None:
                try:
                    kex_reply = KexEcdhReply.parse(payload)
                except ProtocolError:
                    kex_reply = None

        host_key_algorithm = None
        host_key_blob = None
        host_key_fingerprint = None
        if kex_reply is not None:
            try:
                host_key = parse_host_key_blob(kex_reply.host_key_blob)
            except ProtocolError:
                pass  # an unparseable blob counts as no host key
            else:
                host_key_algorithm = host_key.algorithm
                host_key_blob = kex_reply.host_key_blob
                host_key_fingerprint = blob_fingerprint(kex_reply.host_key_blob)

        return SshScanRecord(
            address=address,
            port=port,
            success=True,
            banner=banner.render(),
            kex_init=server_kex,
            host_key_algorithm=host_key_algorithm,
            host_key_blob=host_key_blob,
            host_key_fingerprint=host_key_fingerprint,
            capability_signature=server_kex.capability_signature() if server_kex else None,
        )

    @staticmethod
    def _split_banner(data: bytes) -> tuple[SshBanner | None, bytes]:
        """Split the server banner line off ``data``; return (banner, rest)."""
        newline = data.find(b"\n")
        if newline < 0:
            return None, b""
        line = data[: newline + 1]
        try:
            banner = SshBanner.parse(line)
        except ProtocolError:
            return None, b""
        return banner, data[newline + 1 :]
