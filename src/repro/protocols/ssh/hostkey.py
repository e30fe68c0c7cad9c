"""SSH host public key blobs and fingerprints.

The server host key is the strongest component of the paper's SSH
identifier: a host key is generated at service setup time and is therefore
(almost always) unique per device, regardless of how many addresses the
device answers on.  We implement the RFC 4253 public key blob encodings for
the three common key types and OpenSSH-style SHA-256 fingerprints.

Keys are *synthetic*: they are deterministic functions of a seed rather than
outputs of real key generation, because the scan never validates signatures.
What matters for alias resolution is only that the blob is a stable,
device-wide byte string.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib

from repro.errors import MalformedMessageError
from repro.protocols.ssh.wire import SshReader, SshWriter

ED25519_KEY_LENGTH = 32


@dataclasses.dataclass(frozen=True)
class HostKey:
    """Base class for host public keys."""

    algorithm: str

    def encode_blob(self) -> bytes:
        """Encode the public key blob (RFC 4253 section 6.6 format)."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """The :func:`blob_fingerprint` of this key's encoded blob."""
        return blob_fingerprint(self.encode_blob())


def blob_fingerprint(blob: bytes) -> str:
    """OpenSSH-style fingerprint of a key blob: ``SHA256:<base64 without padding>``.

    A scanner fingerprints the blob the server sent, byte for byte: a
    parse and re-encode would change the digest of a blob with, say, a
    zero-padded exponent or trailing bytes.
    """
    digest = hashlib.sha256(blob).digest()
    encoded = base64.b64encode(digest).decode("ascii").rstrip("=")
    return f"SHA256:{encoded}"


@dataclasses.dataclass(frozen=True)
class Ed25519HostKey(HostKey):
    """An ssh-ed25519 host key (32-byte public key)."""

    public_key: bytes = b"\x00" * ED25519_KEY_LENGTH
    algorithm: str = "ssh-ed25519"

    def __post_init__(self) -> None:
        if len(self.public_key) != ED25519_KEY_LENGTH:
            raise MalformedMessageError("ed25519 public keys are exactly 32 bytes")

    def encode_blob(self) -> bytes:
        writer = SshWriter()
        writer.write_string(self.algorithm.encode("ascii"))
        writer.write_string(self.public_key)
        return writer.getvalue()

    @classmethod
    def generate(cls, seed: str) -> "Ed25519HostKey":
        """Deterministically derive a key from ``seed``."""
        return cls(public_key=hashlib.sha256(("ed25519:" + seed).encode()).digest())


@dataclasses.dataclass(frozen=True)
class RsaHostKey(HostKey):
    """An ssh-rsa host key (public exponent and modulus)."""

    exponent: int = 65537
    modulus: int = 0
    algorithm: str = "ssh-rsa"

    def encode_blob(self) -> bytes:
        writer = SshWriter()
        writer.write_string(self.algorithm.encode("ascii"))
        writer.write_mpint(self.exponent)
        writer.write_mpint(self.modulus)
        return writer.getvalue()

    @classmethod
    def generate(cls, seed: str, bits: int = 2048) -> "RsaHostKey":
        """Deterministically derive a modulus of roughly ``bits`` bits."""
        material = b""
        counter = 0
        while len(material) * 8 < bits:
            material += hashlib.sha512(f"rsa:{seed}:{counter}".encode()).digest()
            counter += 1
        modulus = int.from_bytes(material[: bits // 8], "big") | (1 << (bits - 1)) | 1
        return cls(modulus=modulus)


@dataclasses.dataclass(frozen=True)
class EcdsaHostKey(HostKey):
    """An ecdsa-sha2-nistp256 host key."""

    curve: str = "nistp256"
    point: bytes = b"\x04" + b"\x00" * 64
    algorithm: str = "ecdsa-sha2-nistp256"

    def encode_blob(self) -> bytes:
        writer = SshWriter()
        writer.write_string(self.algorithm.encode("ascii"))
        writer.write_string(self.curve.encode("ascii"))
        writer.write_string(self.point)
        return writer.getvalue()

    @classmethod
    def generate(cls, seed: str) -> "EcdsaHostKey":
        """Deterministically derive an uncompressed point from ``seed``."""
        x = hashlib.sha256(f"ecdsa-x:{seed}".encode()).digest()
        y = hashlib.sha256(f"ecdsa-y:{seed}".encode()).digest()
        return cls(point=b"\x04" + x + y)


def parse_host_key_blob(blob: bytes) -> HostKey:
    """Parse a public key blob into the matching :class:`HostKey` subclass.

    Unknown algorithms, and names that are not ASCII, are preserved as an
    opaque :class:`OpaqueHostKey` so that fingerprinting still works.  An
    ECDSA curve name must be ASCII, since its fingerprint re-encodes it.
    """
    reader = SshReader(blob)
    algorithm = reader.read_string().decode("ascii", errors="replace")
    if algorithm == "ssh-ed25519":
        return Ed25519HostKey(public_key=reader.read_string())
    if algorithm == "ssh-rsa":
        exponent = reader.read_mpint()
        modulus = reader.read_mpint()
        return RsaHostKey(exponent=exponent, modulus=modulus)
    if algorithm.startswith("ecdsa-sha2-") and algorithm.isascii():
        try:
            curve = reader.read_string().decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedMessageError("ECDSA curve name is not ASCII") from exc
        point = reader.read_string()
        return EcdsaHostKey(curve=curve, point=point, algorithm=algorithm)
    return OpaqueHostKey(algorithm=algorithm, blob=blob)


@dataclasses.dataclass(frozen=True)
class OpaqueHostKey(HostKey):
    """A host key with an algorithm this library does not model in detail."""

    blob: bytes = b""

    def encode_blob(self) -> bytes:
        return self.blob
