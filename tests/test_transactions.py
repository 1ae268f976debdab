import hashlib
import random
import struct

import pytest
from hypothesis import given, strategies as st

from routee.crypto import SCHEMES, address_of
from routee.transactions import (
    Transaction,
    TxInput,
    TxOutput,
    coinbase_tx,
    formula_size,
    make_unlock,
    parse_unlock,
    verify_unlock,
)

FAST = SCHEMES["fast"]

GOLDEN_TX_HEX = (
    "010000000001"
    + "11" * 32
    + "00000007"
    + "0000000000001388"
    + "0002" + "756c"
    + "0001"
    + "0000000000001324"
    + "22" * 20
)
GOLDEN_TXID = "e8eab2ac58599d85d116786b1e247c5c3787ee6ef1240ca26636704c14c68f31"


def test_formula_size_reference_values():
    assert formula_size(2, 3) == 408
    assert formula_size(0, 0) == 10
    assert formula_size(2000, 2001) == 364_044  # a full 2000-user settlement


def test_formula_size_rejects_negative():
    with pytest.raises(ValueError):
        formula_size(-1, 0)


@given(st.integers(0, 10_000), st.integers(0, 10_000),
       st.integers(0, 10_000), st.integers(0, 10_000))
def test_formula_size_linearity(a, b, c, d):
    assert formula_size(a + c, b + d) == formula_size(a, b) + formula_size(c, d) - 10


def golden_tx():
    return Transaction(
        [TxInput(b"\x11" * 32, 7, 5000, b"ul")],
        [TxOutput(4900, b"\x22" * 20)],
    )


def test_golden_serialization_built_by_hand():
    # rebuild the byte layout field by field, independent of the serializer
    raw = (
        struct.pack("<I", 1)
        + struct.pack(">H", 1)
        + b"\x11" * 32
        + struct.pack(">I", 7)
        + struct.pack(">Q", 5000)
        + struct.pack(">H", 2) + b"ul"
        + struct.pack(">H", 1)
        + struct.pack(">Q", 4900)
        + b"\x22" * 20
    )
    assert raw.hex() == GOLDEN_TX_HEX
    assert golden_tx().serialize() == raw


def test_golden_txid_pinned():
    assert golden_tx().txid().hex() == GOLDEN_TXID
    raw = bytes.fromhex(GOLDEN_TX_HEX)
    independent = hashlib.sha256(hashlib.sha256(raw).digest()).digest()
    assert golden_tx().txid() == independent


def test_txid_deterministic_and_value_sensitive():
    assert golden_tx().txid() == golden_tx().txid()
    nudged = golden_tx()
    nudged.outputs[0].value += 1
    assert nudged.txid() != golden_tx().txid()


def _random_tx(rng):
    inputs = [
        TxInput(rng.randbytes(32), rng.randrange(2**32), rng.randrange(2**48),
                rng.randbytes(rng.randrange(0, 40)))
        for _ in range(rng.randrange(1, 5))
    ]
    outputs = [
        TxOutput(rng.randrange(2**48), rng.randbytes(20))
        for _ in range(rng.randrange(1, 5))
    ]
    return Transaction(inputs, outputs)


def test_serialize_roundtrip_randomized():
    rng = random.Random(77)
    for _ in range(200):
        tx = _random_tx(rng)
        assert Transaction.deserialize(tx.serialize()) == tx


def test_sighash_excludes_unlocks():
    tx = golden_tx()
    before = tx.sighash()
    tx.inputs[0].unlock = b"something else"
    assert tx.sighash() == before
    assert tx.txid() != golden_tx().txid()


def test_unlock_sign_verify_roundtrip():
    sk, pk = FAST.generate()
    digest = golden_tx().sighash()
    unlock = make_unlock(FAST, sk, pk, digest)
    assert parse_unlock(unlock) == (pk, FAST.sign(sk, digest))
    assert verify_unlock(FAST, address_of(pk), digest, unlock)


def test_unlock_rejects_wrong_address_and_message():
    sk, pk = FAST.generate()
    other_sk, other_pk = FAST.generate()
    digest = golden_tx().sighash()
    unlock = make_unlock(FAST, sk, pk, digest)
    assert not verify_unlock(FAST, address_of(other_pk), digest, unlock)
    assert not verify_unlock(FAST, address_of(pk), b"\x00" * 32, unlock)
    forged = make_unlock(FAST, other_sk, pk, digest)
    assert not verify_unlock(FAST, address_of(pk), digest, forged)
    assert not verify_unlock(FAST, address_of(pk), digest, b"garbage")


def test_coinbase_shape_and_uniqueness():
    cb1 = coinbase_tx(5, 50, b"\x01" * 20)
    cb2 = coinbase_tx(6, 50, b"\x01" * 20)
    assert cb1.is_coinbase and cb2.is_coinbase
    assert cb1.txid() != cb2.txid()  # height tag keeps ids unique
    assert cb1.fee() == 0
    regular = golden_tx()
    assert not regular.is_coinbase
    assert regular.fee() == 100
