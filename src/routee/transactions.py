"""Simplified pay-to-address transactions.

Canonical serialization (bit-exact, drives txids):
  4-byte little-endian version (fixed 1)
  2-byte big-endian input count, then per input:
      32-byte prev txid, 4-byte BE vout, 8-byte BE input value,
      2-byte length + unlock bytes
  2-byte big-endian output count, then per output:
      8-byte BE value, 20-byte lock address

Inputs carry their value explicitly so a block alone is enough to compute
per-transaction fees. Fee arithmetic everywhere uses the size formula
148*inputs + 34*outputs + 10, never the actual serialized length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .codec import Reader, Writer
from .crypto import ADDRESS_SIZE, address_of, sha256d

FORMULA_INPUT_BYTES = 148
FORMULA_OUTPUT_BYTES = 34
FORMULA_BASE_BYTES = 10

MAX_MONEY = 21_000_000 * 100_000_000

COINBASE_PREV_TXID = b"\x00" * 32
COINBASE_PREV_VOUT = 0xFFFFFFFF

Outpoint = tuple[bytes, int]


def formula_size(n_inputs: int, n_outputs: int) -> int:
    """Fee-relevant transaction size in bytes. This formula, not the real
    serialized length, is what all fee math is charged against."""
    if n_inputs < 0 or n_outputs < 0:
        raise ValueError("negative count")
    return FORMULA_INPUT_BYTES * n_inputs + FORMULA_OUTPUT_BYTES * n_outputs + FORMULA_BASE_BYTES


@dataclass
class TxInput:
    prev_txid: bytes
    prev_vout: int
    value: int
    unlock: bytes = b""

    @property
    def outpoint(self) -> Outpoint:
        return (self.prev_txid, self.prev_vout)


@dataclass
class TxOutput:
    value: int
    lock_address: bytes


@dataclass
class Transaction:
    inputs: list[TxInput] = field(default_factory=list)
    outputs: list[TxOutput] = field(default_factory=list)

    @property
    def is_coinbase(self) -> bool:
        return (
            len(self.inputs) == 1
            and self.inputs[0].prev_txid == COINBASE_PREV_TXID
            and self.inputs[0].prev_vout == COINBASE_PREV_VOUT
        )

    def serialize(self, *, strip_unlocks: bool = False) -> bytes:
        parts = [b"\x01\x00\x00\x00", struct.pack(">H", len(self.inputs))]
        for txin in self.inputs:
            if len(txin.prev_txid) != 32:
                raise ValueError("txid must be 32 bytes")
            unlock = b"" if strip_unlocks else txin.unlock
            parts.append(struct.pack(">32sIQH", txin.prev_txid, txin.prev_vout,
                                     txin.value, len(unlock)))
            parts.append(unlock)
        parts.append(struct.pack(">H", len(self.outputs)))
        for txout in self.outputs:
            if len(txout.lock_address) != ADDRESS_SIZE:
                raise ValueError("lock address must be 20 bytes")
            parts.append(struct.pack(">Q20s", txout.value, txout.lock_address))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, raw: bytes) -> "Transaction":
        r = Reader(raw)
        version = struct.unpack("<I", r.fixed(4))[0]
        if version != 1:
            raise ValueError(f"unsupported tx version {version}")
        inputs = [
            TxInput(r.fixed(32), r.u32(), r.u64(), r.lp_bytes())
            for _ in range(r.u16())
        ]
        outputs = [TxOutput(r.u64(), r.fixed(ADDRESS_SIZE)) for _ in range(r.u16())]
        r.expect_end()
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


def make_unlock(scheme, secret_key: bytes, public_key: bytes, sighash: bytes) -> bytes:
    sig = scheme.sign(secret_key, sighash)
    return Writer().lp_bytes(public_key).lp_bytes(sig).getvalue()


def parse_unlock(unlock: bytes) -> tuple[bytes, bytes]:
    r = Reader(unlock)
    public_key = r.lp_bytes()
    sig = r.lp_bytes()
    r.expect_end()
    return public_key, sig


def verify_unlock(scheme, lock_address: bytes, sighash: bytes, unlock: bytes) -> bool:
    try:
        public_key, sig = parse_unlock(unlock)
    except Exception:
        return False
    if address_of(public_key) != lock_address:
        return False
    return scheme.verify(public_key, sighash, sig)


def coinbase_tx(height: int, value: int, lock_address: bytes, extra: bytes = b"") -> Transaction:
    # the height in the unlock field keeps coinbase txids unique per block
    tag = Writer().u64(height).lp_bytes(extra).getvalue()
    txin = TxInput(COINBASE_PREV_TXID, COINBASE_PREV_VOUT, 0, tag)
    return Transaction([txin], [TxOutput(value, lock_address)])
