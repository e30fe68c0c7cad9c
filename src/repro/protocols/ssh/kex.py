"""SSH_MSG_KEXINIT build and parse (RFC 4253 section 7.1).

The KEXINIT message lists, in server preference order, every key exchange,
host key, cipher, MAC and compression algorithm the server supports.  RFC
4253 requires the lists to be ordered by preference, which makes the
concatenation of all lists a stable implementation signature — the second
component of the paper's SSH identifier.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.errors import MalformedMessageError
from repro.protocols.ssh.wire import SshReader, SshWriter

SSH_MSG_KEXINIT = 20

DEFAULT_KEX_ALGORITHMS = [
    "curve25519-sha256",
    "curve25519-sha256@libssh.org",
    "ecdh-sha2-nistp256",
    "diffie-hellman-group14-sha256",
]
DEFAULT_HOST_KEY_ALGORITHMS = ["ssh-ed25519", "rsa-sha2-512", "rsa-sha2-256"]
DEFAULT_CIPHERS = [
    "chacha20-poly1305@openssh.com",
    "aes128-ctr",
    "aes192-ctr",
    "aes256-ctr",
    "aes256-gcm@openssh.com",
]
DEFAULT_MACS = [
    "umac-64-etm@openssh.com",
    "umac-128-etm@openssh.com",
    "hmac-sha2-256-etm@openssh.com",
    "hmac-sha2-512",
]
DEFAULT_COMPRESSION = ["none", "zlib@openssh.com"]


@dataclasses.dataclass(frozen=True)
class KexInit:
    """A parsed or to-be-serialised SSH_MSG_KEXINIT message.

    All ``*_algorithms`` fields are ordered by preference as required by
    RFC 4253.
    """

    cookie: bytes = b"\x00" * 16
    kex_algorithms: tuple[str, ...] = tuple(DEFAULT_KEX_ALGORITHMS)
    server_host_key_algorithms: tuple[str, ...] = tuple(DEFAULT_HOST_KEY_ALGORITHMS)
    encryption_algorithms_client_to_server: tuple[str, ...] = tuple(DEFAULT_CIPHERS)
    encryption_algorithms_server_to_client: tuple[str, ...] = tuple(DEFAULT_CIPHERS)
    mac_algorithms_client_to_server: tuple[str, ...] = tuple(DEFAULT_MACS)
    mac_algorithms_server_to_client: tuple[str, ...] = tuple(DEFAULT_MACS)
    compression_algorithms_client_to_server: tuple[str, ...] = tuple(DEFAULT_COMPRESSION)
    compression_algorithms_server_to_client: tuple[str, ...] = tuple(DEFAULT_COMPRESSION)
    languages_client_to_server: tuple[str, ...] = ()
    languages_server_to_client: tuple[str, ...] = ()
    first_kex_packet_follows: bool = False

    def __post_init__(self) -> None:
        if len(self.cookie) != 16:
            raise MalformedMessageError("KEXINIT cookie must be exactly 16 bytes")

    def build(self) -> bytes:
        """Serialise the message payload (starting with the message code)."""
        writer = SshWriter()
        writer.write_byte(SSH_MSG_KEXINIT)
        writer.write_bytes(self.cookie)
        for names in self._name_lists():
            writer.write_name_list(names)
        writer.write_boolean(self.first_kex_packet_follows)
        writer.write_uint32(0)  # reserved
        return writer.getvalue()

    @classmethod
    def parse(cls, payload: bytes) -> "KexInit":
        """Parse a KEXINIT payload (starting with the message code)."""
        reader = SshReader(payload)
        code = reader.read_byte()
        if code != SSH_MSG_KEXINIT:
            raise MalformedMessageError(f"expected KEXINIT (20), got message code {code}")
        cookie = reader.read_bytes(16)
        lists = [tuple(reader.read_name_list()) for _ in range(10)]
        first_follows = reader.read_boolean()
        reader.read_uint32()  # reserved
        return cls(
            cookie=cookie,
            kex_algorithms=lists[0],
            server_host_key_algorithms=lists[1],
            encryption_algorithms_client_to_server=lists[2],
            encryption_algorithms_server_to_client=lists[3],
            mac_algorithms_client_to_server=lists[4],
            mac_algorithms_server_to_client=lists[5],
            compression_algorithms_client_to_server=lists[6],
            compression_algorithms_server_to_client=lists[7],
            languages_client_to_server=lists[8],
            languages_server_to_client=lists[9],
            first_kex_packet_follows=first_follows,
        )

    def _name_lists(self) -> tuple[tuple[str, ...], ...]:
        return (
            self.kex_algorithms,
            self.server_host_key_algorithms,
            self.encryption_algorithms_client_to_server,
            self.encryption_algorithms_server_to_client,
            self.mac_algorithms_client_to_server,
            self.mac_algorithms_server_to_client,
            self.compression_algorithms_client_to_server,
            self.compression_algorithms_server_to_client,
            self.languages_client_to_server,
            self.languages_server_to_client,
        )

    def capability_signature(self) -> str:
        """Return a stable hash over all algorithm lists (preference order).

        The cookie, which is random per connection, is excluded; the
        signature only depends on what the implementation advertises and in
        which order, mirroring how the paper turns "algorithmic capabilities"
        into part of the host identifier.
        """
        text = "".join(",".join(names) + "\x00" for names in self._name_lists())
        return hashlib.sha256(text.encode("ascii")).hexdigest()
