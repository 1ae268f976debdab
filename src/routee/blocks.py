"""Full blocks and the unspent-output set.

The unspent-output set is a plain dict from outpoint to output.
validate_block / apply_block are pure: they never mutate their arguments.
Transactions inside a block are applied in order against a working view, so
an output created earlier in the block is spendable later in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import wire
from .errors import BlockRejected, TxRejected
from .headers import HeaderChain, BlockHeader, check_pow, expected_target, merkle_root
from .transactions import MAX_MONEY, Outpoint, Transaction, TxOutput, verify_unlock


@dataclass
class Block:
    header: BlockHeader
    txs: list[Transaction]

    def txids(self) -> list[bytes]:
        return [tx.txid() for tx in self.txs]

    def serialize(self) -> bytes:
        return wire.encode(wire.RawBlock(self.header.serialize(), [wire.RawTx(tx.serialize()) for tx in self.txs]))

    @classmethod
    def deserialize(cls, raw: bytes) -> "Block":
        """The block `raw` holds exactly, else `MalformedFrame`."""
        block = wire.decode(wire.RawBlock, raw)
        return cls(BlockHeader.deserialize(block.header), [Transaction.deserialize(tx.raw) for tx in block.txs])


def check_tx(tx: Transaction, view: dict[Outpoint, TxOutput], scheme) -> int:
    """Validate one non-coinbase transaction against a UTXO view and return
    its fee. Raises TxRejected; does not mutate the view."""
    if not tx.inputs:
        raise TxRejected("missing-utxo", "transaction has no inputs")
    seen: set[Outpoint] = set()
    sighash = tx.sighash()
    in_total = 0
    for txin in tx.inputs:
        op = txin.outpoint
        if op in seen:
            raise TxRejected("double-spend", f"outpoint repeated within tx: {op[0].hex()}:{op[1]}")
        seen.add(op)
        entry = view.get(op)
        if entry is None:
            raise TxRejected("missing-utxo", f"{op[0].hex()}:{op[1]}")
        if txin.value != entry.value:
            raise TxRejected(
                "value-mismatch",
                f"declared {txin.value}, utxo holds {entry.value}",
            )
        if not verify_unlock(scheme, entry.lock_address, sighash, txin.unlock):
            raise TxRejected("bad-signature", f"{op[0].hex()}:{op[1]}")
        in_total += txin.value
    out_total = 0
    for txout in tx.outputs:
        if txout.value < 0 or txout.value > MAX_MONEY:
            raise TxRejected("value-overflow", str(txout.value))
        out_total += txout.value
    if out_total > MAX_MONEY:
        raise TxRejected("value-overflow", "output sum")
    if in_total < out_total:
        raise TxRejected("value-overflow", f"outputs {out_total} exceed inputs {in_total}")
    return in_total - out_total


def _apply_tx(tx: Transaction, view: dict[Outpoint, TxOutput]) -> None:
    if not tx.is_coinbase:
        for txin in tx.inputs:
            del view[txin.outpoint]
    txid = tx.txid()
    for idx, txout in enumerate(tx.outputs):
        view[(txid, idx)] = txout


def spend_txs(txs: list[Transaction], view: dict[Outpoint, TxOutput], scheme) -> int:
    """Check and apply non-coinbase transactions to `view` in order and
    return their fees. Raises TxRejected, leaving `view` partly applied."""
    fees = 0
    for tx in txs:
        fees += check_tx(tx, view, scheme)
        _apply_tx(tx, view)
    return fees


def validate_block(chain: HeaderChain, utxo: dict[Outpoint, TxOutput], block: Block, scheme) -> None:
    """Full acceptance check for the next block on `chain`. Each failure mode
    raises BlockRejected with a distinct reason code."""
    new_height = chain.tip_height + 1
    header = block.header
    if header.prev_hash != chain.tip_hash:
        raise BlockRejected("prev-mismatch", f"height {new_height}")
    expected = expected_target(chain, new_height)
    if header.bits != expected.bits:
        raise BlockRejected("bad-bits", f"height {new_height}")
    if not block.txs:
        raise BlockRejected("no-coinbase", "empty block")
    if merkle_root(block.txids()) != header.merkle_root:
        raise BlockRejected("merkle-mismatch", f"height {new_height}")
    if not check_pow(header):
        raise BlockRejected("bad-pow", f"height {new_height}")
    if not block.txs[0].is_coinbase:
        raise BlockRejected("no-coinbase", "first transaction is not a coinbase")
    if any(tx.is_coinbase for tx in block.txs[1:]):
        raise BlockRejected("extra-coinbase", "coinbase after position 0")

    try:
        fees = spend_txs(block.txs[1:], dict(utxo), scheme)
    except TxRejected as exc:
        raise BlockRejected(exc.code, exc.detail)

    coinbase_out = block.txs[0].output_value()
    if coinbase_out > chain.params.block_subsidy + fees:
        raise BlockRejected(
            "coinbase-overspend",
            f"coinbase pays {coinbase_out}, allowed {chain.params.block_subsidy + fees}",
        )


def apply_block(utxo: dict[Outpoint, TxOutput], block: Block) -> dict[Outpoint, TxOutput]:
    """State transition for an already validated block: spent outpoints leave,
    new outputs enter keyed by (txid, index)."""
    view = dict(utxo)
    for tx in block.txs:
        _apply_tx(tx, view)
    return view
