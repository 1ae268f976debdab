"""Hashing, addresses, deterministic randomness, and pluggable signatures.

Two signature roles exist: message authentication of hub requests ("auth")
and on-chain output unlocking ("onchain"). Each role can be served by any
scheme; the `full` suite uses RSA-3072 for auth and secp256k1 ECDSA on-chain,
while the `fast-test` suite substitutes a deterministic HMAC scheme for both
so that whole simulations replay bit-identically from a seed.

A secret key has an in-memory form, which `generate` returns and `sign`
takes, and a stored form, the bytes a snapshot or key file holds. Each scheme
converts between them with `secret_bytes` and `load_secret`. For `fast` and
`rsa3072` both forms are the same bytes (RSA's are PKCS#8 DER, parsed once
per key into a cache). An ECDSA secret in memory is an `EcdsaSecret`: its
PKCS#8 DER, which is the stored form, plus the parsed key. `generate` keeps
the key it made; a secret loaded from bytes parses its DER when it first
signs, since on secp256k1 that parse costs about as much as a signature.

A `fast` key is drawn from the RNG `generate` is given, the hub's seeded one,
so the order keys are made in is part of a replay. ECDSA and RSA keys come
from the OS, whatever RNG is given, so a hub may make its ECDSA keys ahead of
the requests that hand them out; each on-chain scheme says which it is with
`keys_from_rng`.

`serialization`, which parses and dumps keys, is imported on first use: its
import costs about 20 ms, mostly in its SSH module, which imports
`dataclasses` and `inspect`; a daemon that only makes handshakes and
answers reads never needs it, and the first signed request pays it.
`crypto.serialization` and `crypto.load_der_private_key` are module
attributes all the same (PEP 562), and a patch of either holds.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os

from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa

from .errors import AuthFailure

ADDRESS_SIZE = 20
RSA_KEY_CACHE = 1024  # parsed RSA keys kept, of each kind, most recently used first


def __getattr__(name: str):
    # PEP 562: the first read of `serialization` or `load_der_private_key`
    # imports them into the module's globals
    if name not in ("serialization", "load_der_private_key"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from cryptography.hazmat.primitives import serialization

    globals().setdefault("serialization", serialization)
    globals().setdefault("load_der_private_key", serialization.load_der_private_key)
    return globals()[name]


def _loaded(name: str):
    """A name `__getattr__` provides, read from the globals on each call so
    that a patch of it holds."""
    return globals().get(name) or __getattr__(name)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def address_of(public_key: bytes) -> bytes:
    """20-byte address: truncated SHA-256 of the serialized public key."""
    return sha256(public_key)[:ADDRESS_SIZE]


def hex_address(value: str) -> bytes:
    """An address from its hex; anything else raises ValueError."""
    address = bytes.fromhex(value)
    if len(address) != ADDRESS_SIZE:
        raise ValueError(f"want {ADDRESS_SIZE} bytes, got {len(address)}")
    return address


def below(limit: int):
    """A parser of the integers from 0 to `limit` - 1, such as a port or what
    a u64 wire field holds; anything else raises ValueError. argparse names
    the range by the parser's `__name__` in its usage error."""
    def parse(value: str) -> int:
        n = int(value)
        if not 0 <= n < limit:
            raise ValueError(f"want 0 to {limit - 1}, got {n}")
        return n
    parse.__name__ = f"integer from 0 to {limit - 1}"
    return parse


class DeterministicRng:
    """Counter-mode HMAC-SHA256 byte generator. State is (seed, counter) so it
    serializes into snapshots and replays exactly."""

    def __init__(self, seed: bytes | int, counter: int = 0):
        if isinstance(seed, int):
            seed = seed.to_bytes(32, "big")
        if len(seed) != 32:
            seed = sha256(seed)
        self.seed = seed
        self.counter = counter

    def randbytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += hmac.new(self.seed, self.counter.to_bytes(8, "big"), hashlib.sha256).digest()
            self.counter += 1
        return bytes(out[:n])

    def getstate(self) -> tuple[bytes, int]:
        return (self.seed, self.counter)

    @classmethod
    def fromstate(cls, state: tuple[bytes, int]) -> "DeterministicRng":
        return cls(state[0], state[1])


class _BytesSecret:
    """A scheme whose secret is the same bytes in memory and when stored."""

    def secret_bytes(self, secret: bytes) -> bytes:
        return secret

    def load_secret(self, raw: bytes) -> bytes:
        return raw


class FastScheme(_BytesSecret):
    """Deterministic MAC-based stand-in scheme for tests and simulations.

    The "public" key reveals the secret (pk == sk), so verification is just a
    MAC recomputation. Not a real signature scheme; never use outside tests.
    """

    name = "fast"
    keys_from_rng = True

    def generate(self, rng=None) -> tuple[bytes, bytes]:
        sk = rng.randbytes(32) if rng is not None else os.urandom(32)
        return sk, sk

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        return hmac.new(secret_key, message, hashlib.sha256).digest()

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        expected = hmac.new(public_key, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature)


@functools.lru_cache(maxsize=RSA_KEY_CACHE)
def _rsa_public_key(der: bytes):
    # a key object set up once verifies faster than a fresh parse does; bad
    # DER raises and is not cached
    return _loaded("serialization").load_der_public_key(der)


@functools.lru_cache(maxsize=RSA_KEY_CACHE)
def _rsa_private_key(der: bytes):
    # the parse checks the key and costs about 100 signatures; the secret
    # itself stays DER bytes
    return _loaded("load_der_private_key")(der, password=None)


def _pkcs8(key) -> bytes:
    """A new key's stored secret: its unencrypted PKCS#8 DER."""
    serialization = _loaded("serialization")
    return key.private_bytes(
        serialization.Encoding.DER,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )


class RsaScheme(_BytesSecret):
    """RSA-3072 with PKCS#1 v1.5 / SHA-256; DER-encoded keys."""

    name = "rsa3072"
    _KEY_BITS = 3072

    def generate(self, rng=None) -> tuple[bytes, bytes]:
        key = rsa.generate_private_key(public_exponent=65537, key_size=self._KEY_BITS)
        serialization = _loaded("serialization")
        pk = key.public_key().public_bytes(
            serialization.Encoding.DER,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )
        return _pkcs8(key), pk

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        return _rsa_private_key(secret_key).sign(message, padding.PKCS1v15(), hashes.SHA256())

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        try:
            key = _rsa_public_key(public_key)
            if not isinstance(key, rsa.RSAPublicKey):  # a key of another kind signs nothing here
                return False
            key.verify(signature, message, padding.PKCS1v15(), hashes.SHA256())
            return True
        except (InvalidSignature, UnsupportedAlgorithm, ValueError, TypeError):
            return False


class EcdsaSecret:
    """A secp256k1 secret: its PKCS#8 DER, and the parsed key once known.
    A repr shows neither."""

    def __init__(self, der: bytes, key: ec.EllipticCurvePrivateKey | None = None):
        self.der = der
        self.key = key

    def __repr__(self) -> str:
        return "EcdsaSecret()"


class EcdsaScheme:
    """secp256k1 ECDSA / SHA-256; compressed-point public keys, DER signatures."""

    name = "ecdsa"
    keys_from_rng = False

    def generate(self, rng=None) -> tuple[EcdsaSecret, bytes]:
        key = ec.generate_private_key(ec.SECP256K1())
        serialization = _loaded("serialization")
        pk = key.public_key().public_bytes(
            serialization.Encoding.X962,
            serialization.PublicFormat.CompressedPoint,
        )
        return EcdsaSecret(_pkcs8(key), key), pk

    def sign(self, secret_key: EcdsaSecret, message: bytes) -> bytes:
        if secret_key.key is None:
            secret_key.key = _loaded("load_der_private_key")(secret_key.der, password=None)
        return secret_key.key.sign(message, ec.ECDSA(hashes.SHA256()))

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        try:
            key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256K1(), public_key)
            key.verify(signature, message, ec.ECDSA(hashes.SHA256()))
            return True
        except (InvalidSignature, ValueError, TypeError):
            return False

    def secret_bytes(self, secret: EcdsaSecret) -> bytes:
        return secret.der

    def load_secret(self, raw: bytes) -> EcdsaSecret:
        return EcdsaSecret(raw)


Secret = bytes | EcdsaSecret


SCHEMES = {s.name: s for s in (FastScheme(), RsaScheme(), EcdsaScheme())}
# an unlock's key length names the one scheme that verifies it, never another:
# 32 bytes is a fast key, 33 a compressed secp256k1 point
UNLOCK_SCHEMES = {32: SCHEMES["fast"], 33: SCHEMES["ecdsa"]}


def get_scheme(name: str):
    try:
        return SCHEMES[name]
    except KeyError:
        raise AuthFailure(f"unknown signature scheme {name!r}")


class CryptoSuite:
    """Pairs the message-auth scheme with the on-chain unlock scheme."""

    def __init__(self, auth, onchain, mode: str):
        self.auth = auth
        self.onchain = onchain
        self.mode = mode

    @classmethod
    def fast_test(cls) -> "CryptoSuite":
        fast = SCHEMES["fast"]
        return cls(fast, fast, "fast-test")

    @classmethod
    def full(cls) -> "CryptoSuite":
        return cls(SCHEMES["rsa3072"], SCHEMES["ecdsa"], "full")

    @classmethod
    def from_mode(cls, mode: str) -> "CryptoSuite":
        if mode == "fast-test":
            return cls.fast_test()
        if mode == "full":
            return cls.full()
        raise ValueError(f"unknown crypto mode {mode!r}")
