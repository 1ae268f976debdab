"""Hashing, addresses, deterministic randomness, and pluggable signatures.

Two signature roles exist: message authentication of hub requests ("auth")
and on-chain output unlocking ("onchain"). Each role can be served by any
scheme; the `full` suite uses RSA-3072 for auth and secp256k1 ECDSA on-chain,
while the `fast-test` suite substitutes a deterministic HMAC scheme for both
so that whole simulations replay bit-identically from a seed.

An auth secret (`fast` or `rsa3072`) is bytes, in memory and in a key file;
RSA's are PKCS#8 DER, parsed once per key into a cache. An on-chain secret is
never stored: each on-chain scheme derives key i from a 32-byte seed as
`derive(seed, i)`, from `HMAC-SHA256(seed, i)`, the seeded RNG's i-th draw,
as BIP 32's hardened keys derive from one secret. A `fast` key is those 32
bytes; an ECDSA key is the secp256k1 key whose scalar they name, and its
secret in memory is the key object. `generate` makes a fresh key, for
wallets and key files: a `fast` one from the RNG it is given, if any.

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
SECP256K1_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
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


def seed_bytes(seed: bytes | int) -> bytes:
    """A 32-byte seed: an integer's 32 big-endian bytes, 32 bytes as they
    are, and the SHA-256 of any other length."""
    if isinstance(seed, int):
        seed = seed.to_bytes(32, "big")
    return seed if len(seed) == 32 else sha256(seed)


def draw(seed: bytes, index: int) -> bytes:
    """The `index`-th 32 bytes of the RNG seeded with `seed`."""
    return hmac.new(seed, index.to_bytes(8, "big"), hashlib.sha256).digest()


class DeterministicRng:
    """Counter-mode HMAC-SHA256 byte generator. Its state is (seed, counter),
    so an RNG made from the same pair replays it exactly."""

    def __init__(self, seed: bytes | int, counter: int = 0):
        self.seed = seed_bytes(seed)
        self.counter = counter

    def randbytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += draw(self.seed, self.counter)
            self.counter += 1
        return bytes(out[:n])


class FastScheme:
    """Deterministic MAC-based stand-in scheme for tests and simulations.

    The "public" key reveals the secret (pk == sk), so verification is just a
    MAC recomputation. Not a real signature scheme; never use outside tests.
    """

    name = "fast"

    def generate(self, rng=None) -> tuple[bytes, bytes]:
        sk = rng.randbytes(32) if rng is not None else os.urandom(32)
        return sk, sk

    def derive(self, seed: bytes, index: int) -> tuple[bytes, bytes]:
        sk = draw(seed, index)
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


class RsaScheme:
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
        sk = key.private_bytes(
            serialization.Encoding.DER,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
        return sk, pk

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


class EcdsaScheme:
    """secp256k1 ECDSA / SHA-256; compressed-point public keys, DER signatures.
    A secret is its key object."""

    name = "ecdsa"

    def generate(self, rng=None) -> tuple[ec.EllipticCurvePrivateKey, bytes]:
        return self._pair(ec.generate_private_key(ec.SECP256K1()))

    def derive(self, seed: bytes, index: int) -> tuple[ec.EllipticCurvePrivateKey, bytes]:
        # the draw reduced into the scalars 1 to n - 1; deriving checks the
        # key and costs about two key generations
        scalar = 1 + int.from_bytes(draw(seed, index), "big") % (SECP256K1_ORDER - 1)
        return self._pair(ec.derive_private_key(scalar, ec.SECP256K1()))

    def _pair(self, key: ec.EllipticCurvePrivateKey) -> tuple[ec.EllipticCurvePrivateKey, bytes]:
        serialization = _loaded("serialization")
        pk = key.public_key().public_bytes(
            serialization.Encoding.X962,
            serialization.PublicFormat.CompressedPoint,
        )
        return key, pk

    def sign(self, secret_key: ec.EllipticCurvePrivateKey, message: bytes) -> bytes:
        return secret_key.sign(message, ec.ECDSA(hashes.SHA256()))

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        try:
            key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256K1(), public_key)
            key.verify(signature, message, ec.ECDSA(hashes.SHA256()))
            return True
        except (InvalidSignature, ValueError, TypeError):
            return False


Secret = bytes | ec.EllipticCurvePrivateKey


SCHEMES = {s.name: s for s in (FastScheme(), RsaScheme(), EcdsaScheme())}
# the schemes that sign hub requests, and so the only ones a key file holds
AUTH_SCHEMES = ("fast", "rsa3072")
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
