"""Encrypted, replay-safe sessions over an untrusted relay.

Handshake: the client sends an ephemeral X25519 key; the hub answers with its
own ephemeral, a session id, its 32-byte attestation measurement, and a
key-confirmation MAC. Both sides derive a 128-bit AES-GCM key from the two
shared secrets. Only the holder of the hub's static key can derive the key,
so a valid confirmation MAC doubles as proof of possession (the stand-in for
a remote-attestation check).

Envelopes: AES-128-GCM with nonce = 4-byte direction tag + 8-byte sequence
number, with session_id || seq as associated data. Each direction's sequence
increases by exactly one per message; a gap or repeat aborts the session.
An envelope is a `wire.Envelope`, packed and sliced with `wire.ENVELOPE_HEAD`;
a malformed one raises `MalformedFrame` and spends no sequence number.
"""

from __future__ import annotations

import hashlib
import hmac
import os

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from . import wire
from .crypto import sha256
from .errors import HandshakeFailure, MalformedFrame, SessionAborted

SESSION_ID_SIZE = 8
_ENVELOPE = wire.ENVELOPE_HEAD
_AD_SIZE = SESSION_ID_SIZE + 8  # session id and sequence number
DIR_CLIENT_TO_HUB = b"\x00\x00\x00\x01"
DIR_HUB_TO_CLIENT = b"\x00\x00\x00\x02"

# fixed measurement published for the attestation stub; a real deployment
# would replace blob+MAC with a hardware quote over the same transcript
STUB_MEASUREMENT = sha256(b"routee-enclave-measurement-v1")


def _key_schedule(shared_static: bytes, shared_eph: bytes, client_eph: bytes, session_id: bytes,
                  hub_eph: bytes, measurement: bytes, hub_static: bytes) -> tuple[bytes, bytes]:
    """The session key and the key-confirmation MAC, from the two shared
    secrets and the transcript: what hub and client must derive alike."""
    transcript = sha256(client_eph + session_id + hub_eph + measurement + hub_static)
    okm = HKDF(
        algorithm=hashes.SHA256(),
        length=48,
        salt=transcript,
        info=b"routee-session-v1",
    ).derive(shared_static + shared_eph)
    return okm[:16], hmac.new(okm[16:], b"confirm" + transcript, hashlib.sha256).digest()


def _exchange(secret: X25519PrivateKey, peer_public: bytes) -> bytes:
    """X25519 against a peer's public key. A low-order key, whose shared
    secret would be all zeros, fails the handshake."""
    try:
        return secret.exchange(X25519PublicKey.from_public_bytes(peer_public))
    except ValueError:
        raise HandshakeFailure("low-order X25519 key") from None


class Session:
    """One side of an established session. seal/open enforce strict sequence
    ordering in both directions."""

    def __init__(self, session_id: bytes, key: bytes, is_hub: bool):
        self.session_id = session_id
        self.key = key
        self._aead = AESGCM(key)
        self._seal_dir = DIR_HUB_TO_CLIENT if is_hub else DIR_CLIENT_TO_HUB
        self._open_dir = DIR_CLIENT_TO_HUB if is_hub else DIR_HUB_TO_CLIENT
        self.send_seq = 0
        self.recv_seq = 0
        self.aborted = False

    def seal(self, plaintext: bytes) -> bytes:
        if self.aborted:
            raise SessionAborted("aborted", "session previously aborted")
        seq = self.send_seq
        seq_bytes = seq.to_bytes(8, "big")
        ct = self._aead.encrypt(self._seal_dir + seq_bytes, plaintext, self.session_id + seq_bytes)
        self.send_seq += 1
        return _ENVELOPE.pack(self.session_id, seq, len(ct)) + ct

    def open(self, envelope: bytes) -> bytes:
        if self.aborted:
            raise SessionAborted("aborted", "session previously aborted")
        if len(envelope) < _ENVELOPE.size:
            raise MalformedFrame(f"short envelope: {len(envelope)} bytes")
        session_id, seq, size = _ENVELOPE.unpack_from(envelope)
        if size != len(envelope) - _ENVELOPE.size:
            raise MalformedFrame(f"envelope of {len(envelope)} bytes announces {size} ciphertext bytes")
        if session_id != self.session_id:
            raise SessionAborted("wrong-session", session_id.hex())
        if seq < self.recv_seq:
            self.aborted = True
            raise SessionAborted("seq-repeat", f"seq {seq}, expected {self.recv_seq}")
        if seq > self.recv_seq:
            self.aborted = True
            raise SessionAborted("seq-gap", f"seq {seq}, expected {self.recv_seq}")
        nonce = self._open_dir + envelope[SESSION_ID_SIZE:_AD_SIZE]
        try:
            plaintext = self._aead.decrypt(nonce, envelope[_ENVELOPE.size:], envelope[:_AD_SIZE])
        except InvalidTag:
            self.aborted = True
            raise SessionAborted("auth-tag", f"seq {seq}")
        self.recv_seq += 1
        return plaintext


class HubSessionEndpoint:
    """Hub-side handshake handling and session table."""

    def __init__(self, static_secret: bytes | None = None, rng=None, measurement: bytes = STUB_MEASUREMENT):
        if static_secret is None:
            static_secret = X25519PrivateKey.generate().private_bytes_raw()
        self._static = X25519PrivateKey.from_private_bytes(static_secret)
        self.static_public = self._static.public_key().public_bytes_raw()
        self.measurement = measurement
        self._rng = rng
        self.sessions: dict[bytes, Session] = {}

    def _randbytes(self, n: int) -> bytes:
        if self._rng is not None:
            return self._rng.randbytes(n)
        return os.urandom(n)

    def handle_init(self, init_payload: bytes) -> tuple[bytes, Session]:
        client_eph = wire.decode(wire.HandshakeInit, init_payload).client_eph
        shared_static = _exchange(self._static, client_eph)
        eph_secret = X25519PrivateKey.from_private_bytes(self._randbytes(32))
        hub_eph = eph_secret.public_key().public_bytes_raw()
        session_id = self._randbytes(SESSION_ID_SIZE)
        while session_id in self.sessions:
            session_id = self._randbytes(SESSION_ID_SIZE)
        key, mac = _key_schedule(shared_static, _exchange(eph_secret, client_eph), client_eph,
                                 session_id, hub_eph, self.measurement, self.static_public)
        ack = wire.encode(wire.HandshakeAck(session_id, hub_eph, self.measurement, mac))
        session = Session(session_id, key, is_hub=True)
        self.sessions[session_id] = session
        return ack, session

    def session_for(self, envelope: bytes) -> Session:
        # an envelope starts with its session id
        session = self.sessions.get(envelope[:SESSION_ID_SIZE])
        if session is None:
            raise SessionAborted("wrong-session", "unknown session id")
        return session


class ClientHandshake:
    """Client side: build the init payload, then complete() with the ack."""

    def __init__(self, hub_static_public: bytes, expected_measurement: bytes = STUB_MEASUREMENT, rng=None):
        self.hub_static_public = hub_static_public
        self.expected_measurement = expected_measurement
        if rng is not None:
            self._eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
        else:
            self._eph = X25519PrivateKey.generate()
        self.client_eph = self._eph.public_key().public_bytes_raw()

    def init_payload(self) -> bytes:
        return wire.encode(wire.HandshakeInit(self.client_eph))

    def complete(self, ack_payload: bytes) -> Session:
        ack = wire.decode(wire.HandshakeAck, ack_payload)
        if ack.measurement != self.expected_measurement:
            raise HandshakeFailure("attestation measurement mismatch")
        key, mac = _key_schedule(_exchange(self._eph, self.hub_static_public), _exchange(self._eph, ack.hub_eph),
                                 self.client_eph, ack.session_id, ack.hub_eph, ack.measurement,
                                 self.hub_static_public)
        if not hmac.compare_digest(ack.confirm, mac):
            raise HandshakeFailure("key confirmation mismatch")
        return Session(ack.session_id, key, is_hub=False)
