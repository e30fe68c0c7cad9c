"""Tests for SSH_MSG_KEXINIT build/parse and the capability signature."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MalformedMessageError
from repro.protocols.ssh.kex import SSH_MSG_KEXINIT, KexInit

algorithm_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-@.", min_size=1, max_size=30),
    min_size=0,
    max_size=6,
).map(tuple)


class TestBuildParse:
    def test_roundtrip_defaults(self):
        original = KexInit(cookie=bytes(range(16)))
        parsed = KexInit.parse(original.build())
        assert parsed == original
        # The capability signature is a SHA-256 hex digest.
        assert len(parsed.capability_signature()) == 64

    def test_message_code_is_kexinit(self):
        assert KexInit().build()[0] == SSH_MSG_KEXINIT

    def test_roundtrip_custom_lists(self):
        original = KexInit(
            cookie=b"\xaa" * 16,
            kex_algorithms=("diffie-hellman-group1-sha1",),
            server_host_key_algorithms=("ssh-rsa", "ssh-dss"),
            languages_client_to_server=("en-US",),
        )
        assert KexInit.parse(original.build()) == original

    def test_wrong_cookie_length_rejected(self):
        with pytest.raises(MalformedMessageError):
            KexInit(cookie=b"short")

    def test_parse_rejects_other_message_codes(self):
        payload = bytes([21]) + b"\x00" * 40
        with pytest.raises(MalformedMessageError):
            KexInit.parse(payload)


class TestCapabilitySignature:
    def test_signature_ignores_cookie(self):
        a = KexInit(cookie=b"\x01" * 16)
        b = KexInit(cookie=b"\x02" * 16)
        assert a.capability_signature() == b.capability_signature()

    def test_signature_changes_with_algorithm_set(self):
        a = KexInit()
        b = dataclasses.replace(a, kex_algorithms=("diffie-hellman-group14-sha256",))
        assert a.capability_signature() != b.capability_signature()

    def test_signature_sensitive_to_preference_order(self):
        a = KexInit(kex_algorithms=("curve25519-sha256", "ecdh-sha2-nistp256"))
        b = KexInit(kex_algorithms=("ecdh-sha2-nistp256", "curve25519-sha256"))
        assert a.capability_signature() != b.capability_signature()

    def test_signature_distinguishes_adjacent_lists(self):
        # Moving a name from one list to the next must not collide.
        a = KexInit(kex_algorithms=("x", "y"), server_host_key_algorithms=())
        b = KexInit(kex_algorithms=("x",), server_host_key_algorithms=("y",))
        assert a.capability_signature() != b.capability_signature()


@given(kex=algorithm_names, hostkeys=algorithm_names, ciphers=algorithm_names)
def test_kexinit_roundtrip_property(kex, hostkeys, ciphers):
    original = KexInit(
        cookie=b"\x42" * 16,
        kex_algorithms=kex,
        server_host_key_algorithms=hostkeys,
        encryption_algorithms_client_to_server=ciphers,
        encryption_algorithms_server_to_client=ciphers,
    )
    parsed = KexInit.parse(original.build())
    assert parsed == original
    assert parsed.capability_signature() == original.capability_signature()
