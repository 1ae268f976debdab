"""Simplified pay-to-address transactions.

Canonical serialization (bit-exact, drives txids):
  4-byte little-endian version (fixed 1)
  2-byte big-endian input count, then per input:
      32-byte prev txid, 4-byte BE vout, 8-byte BE input value,
      2-byte length + unlock bytes
  2-byte big-endian output count, then per output:
      8-byte BE value, 20-byte lock address
An unlock is the public key and the signature, each behind a 2-byte length.
Only the version is little-endian, as on chain. Golden txids pin these
bytes, so they are packed here with `struct`, not declared in `wire`.

Inputs carry their value explicitly so a block alone is enough to compute
per-transaction fees. Fee arithmetic everywhere uses the size formula
148*inputs + 34*outputs + 10, never the actual serialized length.
"""

from __future__ import annotations

import struct

from . import wire
from .crypto import ADDRESS_SIZE, UNLOCK_SCHEMES, Secret, address_of, sha256d
from .errors import MalformedFrame

FORMULA_INPUT_BYTES = 148
FORMULA_OUTPUT_BYTES = 34
FORMULA_BASE_BYTES = 10

MAX_MONEY = 21_000_000 * 100_000_000
BLOCK_SUBSIDY = 50 * 100_000_000  # what a coinbase may mint on top of its block's fees

COINBASE_PREV_TXID = b"\x00" * 32
COINBASE_PREV_VOUT = 0xFFFFFFFF

Outpoint = tuple[bytes, int]

_VERSION = struct.pack("<I", 1)
_LENGTH = struct.Struct(">H")  # counts, unlock lengths, unlock parts
_INPUT = struct.Struct(">32sIQH")  # the last field is the unlock length
_OUTPUT = struct.Struct(">Q20s")


def formula_size(n_inputs: int, n_outputs: int) -> int:
    """Fee-relevant transaction size in bytes. This formula, not the real
    serialized length, is what all fee math is charged against."""
    if n_inputs < 0 or n_outputs < 0:
        raise ValueError("negative count")
    return FORMULA_INPUT_BYTES * n_inputs + FORMULA_OUTPUT_BYTES * n_outputs + FORMULA_BASE_BYTES


@wire.plain
class TxInput:
    prev_txid: bytes
    prev_vout: int
    value: int
    unlock: bytes = b""

    @property
    def outpoint(self) -> Outpoint:
        return (self.prev_txid, self.prev_vout)


@wire.plain
class TxOutput:
    value: int
    lock_address: bytes


@wire.plain
class Transaction:
    inputs: list[TxInput] = wire.fresh(list)
    outputs: list[TxOutput] = wire.fresh(list)

    @property
    def is_coinbase(self) -> bool:
        return (
            len(self.inputs) == 1
            and self.inputs[0].prev_txid == COINBASE_PREV_TXID
            and self.inputs[0].prev_vout == COINBASE_PREV_VOUT
        )

    def serialize(self, *, strip_unlocks: bool = False) -> bytes:
        parts = [_VERSION, _LENGTH.pack(len(self.inputs))]
        for txin in self.inputs:
            if len(txin.prev_txid) != 32:
                raise ValueError("txid must be 32 bytes")
            unlock = b"" if strip_unlocks else txin.unlock
            parts.append(_INPUT.pack(txin.prev_txid, txin.prev_vout, txin.value, len(unlock)))
            parts.append(unlock)
        parts.append(_LENGTH.pack(len(self.outputs)))
        for txout in self.outputs:
            if len(txout.lock_address) != ADDRESS_SIZE:
                raise ValueError("lock address must be 20 bytes")
            parts.append(_OUTPUT.pack(txout.value, txout.lock_address))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, raw: bytes) -> "Transaction":
        """The transaction `raw` holds exactly, else `MalformedFrame`."""
        if raw[:4] != _VERSION:
            raise MalformedFrame(f"unsupported tx version {raw[:4].hex()}")
        try:
            (count,) = _LENGTH.unpack_from(raw, 4)
            pos = 4 + _LENGTH.size
            inputs = []
            for _ in range(count):
                prev_txid, prev_vout, value, size = _INPUT.unpack_from(raw, pos)
                pos += _INPUT.size + size
                inputs.append(TxInput(prev_txid, prev_vout, value, raw[pos - size:pos]))
            (count,) = _LENGTH.unpack_from(raw, pos)
            outputs = [TxOutput(*fields) for fields in _OUTPUT.iter_unpack(raw[pos + _LENGTH.size:])]
        except struct.error as exc:
            raise MalformedFrame(f"transaction: {exc}") from None
        if len(outputs) != count:
            raise MalformedFrame(f"transaction: {len(outputs)} outputs, {count} declared")
        return cls(inputs, outputs)

    def txid(self) -> bytes:
        return sha256d(self.serialize())

    def sighash(self) -> bytes:
        """Digest signed by every input: the serialization with unlocks blanked."""
        return sha256d(self.serialize(strip_unlocks=True))

    def input_value(self) -> int:
        return sum(txin.value for txin in self.inputs)

    def output_value(self) -> int:
        return sum(txout.value for txout in self.outputs)

    def fee(self) -> int:
        if self.is_coinbase:
            return 0
        return self.input_value() - self.output_value()


def make_unlock(scheme, secret_key: Secret, public_key: bytes, sighash: bytes) -> bytes:
    sig = scheme.sign(secret_key, sighash)
    return _LENGTH.pack(len(public_key)) + public_key + _LENGTH.pack(len(sig)) + sig


def parse_unlock(unlock: bytes) -> tuple[bytes, bytes]:
    try:
        (key_size,) = _LENGTH.unpack_from(unlock)
        (sig_size,) = _LENGTH.unpack_from(unlock, _LENGTH.size + key_size)
    except struct.error:
        raise MalformedFrame("truncated unlock") from None
    sig_start = 2 * _LENGTH.size + key_size
    if sig_start + sig_size != len(unlock):
        raise MalformedFrame("unlock length mismatch")
    return unlock[_LENGTH.size:_LENGTH.size + key_size], unlock[sig_start:]


def verify_unlock(lock_address: bytes, sighash: bytes, unlock: bytes) -> bool:
    try:
        public_key, sig = parse_unlock(unlock)
    except MalformedFrame:
        return False
    scheme = UNLOCK_SCHEMES.get(len(public_key))
    return scheme is not None and address_of(public_key) == lock_address and scheme.verify(public_key, sighash, sig)


def coinbase_tx(height: int, value: int, lock_address: bytes) -> Transaction:
    # the height in the unlock field keeps coinbase txids unique per block; the
    # zero after it is the length of an extra-data field no coinbase fills
    tag = struct.pack(">QH", height, 0)
    txin = TxInput(COINBASE_PREV_TXID, COINBASE_PREV_VOUT, 0, tag)
    return Transaction([txin], [TxOutput(value, lock_address)])
