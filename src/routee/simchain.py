"""Deterministic simulated UTXO blockchain: miner, mempool, wallet, forks.

Everything a node does is driven by its seeded RNG and a controllable clock,
so a whole simulation replays bit-identically from (seed, script).
"""

from __future__ import annotations

import random

from .blocks import Block, apply_block, apply_tx, check_tx, spend_txs
from .crypto import SCHEMES, Secret, address_of
from .errors import TxRejected
from .headers import (
    BlockHeader,
    ChainParams,
    HeaderChain,
    bits_to_target,
    expected_target,
    merkle_root,
)
from .transactions import (
    BLOCK_SUBSIDY,
    Outpoint,
    Transaction,
    TxInput,
    TxOutput,
    coinbase_tx,
    make_unlock,
)

GENESIS_PREV_HASH = b"\x00" * 32


class SimClock:
    """Manually advanced timestamp source; mining stamps blocks with `now`."""

    def __init__(self, start: int = 1_600_000_000):
        self.now = start

    def advance(self, seconds: int) -> int:
        self.now += seconds
        return self.now


class Wallet:
    """Key ring plus UTXO tracking for one simchain principal."""

    def __init__(self, scheme, rng: random.Random):
        self.scheme = scheme
        self.rng = rng
        self.keys: dict[bytes, tuple[Secret, bytes]] = {}  # address -> (sk, pk)
        self.utxos: dict[Outpoint, TxOutput] = {}
        self.pending_spends: set[Outpoint] = set()  # spent by not-yet-mined txs

    def fresh_address(self) -> bytes:
        sk, pk = self.scheme.generate(self.rng)
        addr = address_of(pk)
        self.keys[addr] = (sk, pk)
        return addr

    def scan_block(self, block: Block) -> None:
        for tx in block.txs:
            for txin in tx.inputs:
                self.utxos.pop(txin.outpoint, None)
                self.pending_spends.discard(txin.outpoint)
            txid = tx.txid()
            for idx, txout in enumerate(tx.outputs):
                if txout.lock_address in self.keys:
                    self.utxos[(txid, idx)] = txout

    def balance(self) -> int:
        return sum(o.value for o in self.utxos.values())

    def build_payment(self, dest_address: bytes, amount: int, fee: int) -> Transaction:
        """Spend own UTXOs to pay `amount` to `dest_address`; change returns
        to a fresh own address."""
        picked: list[tuple[Outpoint, TxOutput]] = []
        total = 0
        for op, out in sorted(self.utxos.items()):
            if op in self.pending_spends:
                continue
            picked.append((op, out))
            total += out.value
            if total >= amount + fee:
                break
        if total < amount + fee:
            raise TxRejected("insufficient-funds", f"wallet holds {total}")
        outputs = [TxOutput(amount, dest_address)]
        change = total - amount - fee
        if change:
            outputs.append(TxOutput(change, self.fresh_address()))
        tx = Transaction([TxInput(op[0], op[1], out.value) for op, out in picked], outputs)
        digest = tx.sighash()
        for txin, (op, out) in zip(tx.inputs, picked):
            sk, pk = self.keys[out.lock_address]
            txin.unlock = make_unlock(self.scheme, sk, pk, digest)
        self.pending_spends.update(op for op, _ in picked)
        return tx


class SimNode:
    """Single-node chain simulator: mines, validates, and serves blocks.
    `scheme` picks only its wallet's keys: an unlock of either scheme verifies."""

    def __init__(
        self,
        params: ChainParams | None = None,
        scheme=None,
        seed: int = 0,
        clock: SimClock | None = None,
    ):
        self.params = params or ChainParams.regtest()
        self.scheme = scheme or SCHEMES["fast"]
        self.rng = random.Random(seed)
        self.clock = clock or SimClock()
        self.wallet = Wallet(self.scheme, self.rng)
        self.mempool: list[Transaction] = []
        self._mempool_spends: set[Outpoint] = set()

        genesis = self._mine_header(
            prev_hash=GENESIS_PREV_HASH,
            bits=self.params.pow_limit_bits,
            txs=[coinbase_tx(0, BLOCK_SUBSIDY, self.wallet.fresh_address())],
        )
        self.blocks: list[Block] = [genesis]
        self.chain = HeaderChain(self.params, [genesis.header])
        self.utxo = apply_block({}, genesis)
        self.wallet.scan_block(genesis)

    # --- mining ---

    def _mine_header(self, prev_hash: bytes, bits: int, txs: list[Transaction]) -> Block:
        root = merkle_root([tx.txid() for tx in txs])
        target = bits_to_target(bits)
        timestamp = self.clock.now
        nonce = 0
        while True:
            header = BlockHeader(1, prev_hash, root, timestamp, bits, nonce)
            if int.from_bytes(header.hash(), "little") <= target:
                return Block(header, txs)
            nonce += 1
            if nonce > 0xFFFFFFFF:
                nonce = 0
                timestamp += 1

    def next_bits(self) -> int:
        return expected_target(self.chain, self.chain.tip_height + 1).bits

    def mine_block(self, txs: list[Transaction] | None = None) -> Block:
        """Mine the next block. With txs=None the mempool is drained; an
        explicitly passed list is checked once, before any work is spent, and
        the view it was checked against becomes the node's UTXO set."""
        if txs is None:
            txs = self.mempool
            self.mempool = []
            self._mempool_spends.clear()
        height = self.chain.tip_height + 1
        view = dict(self.utxo)
        fees = spend_txs(txs, view)
        coinbase = coinbase_tx(height, BLOCK_SUBSIDY + fees, self.wallet.fresh_address())
        apply_tx(coinbase, view)
        self.clock.advance(self.params.target_spacing)
        block = self._mine_header(self.chain.tip_hash, self.next_bits(), [coinbase] + list(txs))
        self.chain.append(block.header)
        self.utxo = view
        self.blocks.append(block)
        self.wallet.scan_block(block)
        return block

    def mine_blocks(self, count: int) -> list[Block]:
        return [self.mine_block() for _ in range(count)]

    # --- mempool ---

    def submit_tx(self, tx: Transaction) -> None:
        """Admit a transaction to the mempool or raise TxRejected."""
        check_tx(tx, self.utxo)
        for txin in tx.inputs:
            if txin.outpoint in self._mempool_spends:
                raise TxRejected("mempool-conflict", f"{txin.prev_txid.hex()}:{txin.prev_vout}")
        self.mempool.append(tx)
        self._mempool_spends.update(txin.outpoint for txin in tx.inputs)

    def pay(self, dest_address: bytes, amount: int, fee: int = 0) -> Transaction:
        """Faucet: pay from the miner wallet into the mempool."""
        tx = self.wallet.build_payment(dest_address, amount, fee)
        self.submit_tx(tx)
        return tx

    # --- queries ---

    @property
    def tip_height(self) -> int:
        return self.chain.tip_height

    def get_block(self, height: int) -> Block:
        return self.blocks[height]

    def headers_from(self, from_height: int, count: int) -> list[BlockHeader]:
        return [b.header for b in self.blocks[from_height:from_height + count]]

    # --- forks ---

    def clone_at(self, height: int) -> "SimNode":
        """Detached copy of this node truncated to `height`, with its own
        wallet and RNG. The foundation for forged chains."""
        clone = object.__new__(SimNode)
        clone.params = self.params
        clone.scheme = self.scheme
        clone.rng = random.Random(self.rng.random())
        clone.clock = SimClock(self.blocks[height].header.timestamp)
        clone.wallet = Wallet(self.scheme, clone.rng)
        clone.mempool = []
        clone._mempool_spends = set()
        clone.blocks = self.blocks[:height + 1]
        clone.chain = HeaderChain(self.params, [block.header for block in clone.blocks])
        utxo = {}
        for block in clone.blocks:
            utxo = apply_block(utxo, block)
        clone.utxo = utxo
        return clone


def forge_chain(node: SimNode, fork_height: int, payments=()) -> list[Block]:
    """Build an alternative chain off `node` at `fork_height`.

    The forged chain is internally valid: its first block funds the forger's
    wallet via the coinbase, and the next, if any `payments` (lock address,
    amount) are given, pays them out of that forged coinbase. The result is
    returned, never applied to `node`.
    """
    if fork_height > node.tip_height:
        raise ValueError("fork height beyond tip")
    forger = node.clone_at(fork_height)
    forged: list[Block] = [forger.mine_block([])]
    if payments:
        for address, amount in payments:
            forger.pay(address, amount)
        forged.append(forger.mine_block())
    return forged
