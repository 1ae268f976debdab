import pytest

from routee.crypto import (
    SCHEMES,
    CryptoSuite,
    DeterministicRng,
    address_of,
    sha256,
    sha256d,
)


def test_hashes_and_address():
    assert sha256(b"") == bytes.fromhex(
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert sha256d(b"x") == sha256(sha256(b"x"))
    pk = b"\x02" * 33
    assert address_of(pk) == sha256(pk)[:20]
    assert len(address_of(pk)) == 20


def test_deterministic_rng_replays_and_resumes():
    a = DeterministicRng(99)
    b = DeterministicRng(99)
    assert a.randbytes(100) == b.randbytes(100)
    state = a.getstate()
    tail = a.randbytes(32)
    resumed = DeterministicRng.fromstate(state)
    assert resumed.randbytes(32) == tail


@pytest.mark.parametrize("name", ["fast", "ecdsa", "rsa3072"])
def test_signature_schemes_sign_verify(name):
    scheme = SCHEMES[name]
    sk, pk = scheme.generate()
    msg = b"routed payment of 30 with fee 2"
    sig = scheme.sign(sk, msg)
    assert scheme.verify(pk, msg, sig)
    assert not scheme.verify(pk, msg + b"!", sig)
    mangled = bytearray(sig)
    mangled[0] ^= 0xFF
    assert not scheme.verify(pk, msg, bytes(mangled))
    assert not scheme.verify(pk, msg, b"short")


def test_fast_scheme_is_seed_deterministic():
    scheme = SCHEMES["fast"]
    k1 = scheme.generate(DeterministicRng(5))
    k2 = scheme.generate(DeterministicRng(5))
    assert k1 == k2
    assert scheme.sign(k1[0], b"m") == scheme.sign(k2[0], b"m")


def test_wrong_key_rejects():
    scheme = SCHEMES["fast"]
    sk1, pk1 = scheme.generate(DeterministicRng(1))
    sk2, pk2 = scheme.generate(DeterministicRng(2))
    sig = scheme.sign(sk1, b"m")
    assert not scheme.verify(pk2, b"m", sig)


def test_suite_modes():
    fast = CryptoSuite.from_mode("fast-test")
    assert fast.auth.name == "fast" and fast.onchain.name == "fast"
    full = CryptoSuite.from_mode("full")
    assert full.auth.name == "rsa3072" and full.onchain.name == "ecdsa"
    with pytest.raises(ValueError):
        CryptoSuite.from_mode("???")


def test_rsa_sizing_is_3072_bit():
    scheme = SCHEMES["rsa3072"]
    sk, pk = scheme.generate()
    sig = scheme.sign(sk, b"m")
    assert len(sig) == 384  # 3072 / 8


def test_rsa_public_keys_are_parsed_once_and_bad_der_still_fails(monkeypatch):
    from routee import crypto

    parses = []
    load = crypto.serialization.load_der_public_key

    def counting_load(der):
        parses.append(der)
        return load(der)

    monkeypatch.setattr(crypto.serialization, "load_der_public_key", counting_load)
    crypto._rsa_public_key.cache_clear()
    scheme = SCHEMES["rsa3072"]
    sk, pk = scheme.generate()
    sig = scheme.sign(sk, b"m")
    assert scheme.verify(pk, b"m", sig) and scheme.verify(pk, b"m", sig)
    assert not scheme.verify(pk, b"n", sig)
    assert parses == [pk]
    # bad DER is refused every time, and is not kept
    for _ in range(2):
        assert not scheme.verify(pk[:-1], b"m", sig)
        assert not scheme.verify(b"", b"m", sig)
    assert crypto._rsa_public_key.cache_info().currsize == 1
    crypto._rsa_public_key.cache_clear()
