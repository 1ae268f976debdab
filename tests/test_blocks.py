import random

import pytest
from hypothesis import given, settings, strategies as st

from routee.blocks import Block, apply_block, validate_block
from routee.crypto import SCHEMES
from routee.errors import BlockRejected, RouteeError, TxRejected
from routee.headers import BlockHeader, ChainParams, HeaderChain
from routee.simchain import SimNode
from routee.transactions import BLOCK_SUBSIDY, Transaction, TxInput, TxOutput, make_unlock

from conftest import mutated, replay_utxo

FAST = SCHEMES["fast"]


def fresh_chain(node):
    chain = HeaderChain(node.params, [node.get_block(0).header])
    utxo = apply_block({}, node.get_block(0))
    for block in node.blocks[1:]:
        chain.append(block.header)
        utxo = apply_block(utxo, block)
    return chain, utxo


def test_honest_mined_block_validates(node):
    node.mine_blocks(3)
    chain, utxo = fresh_chain(node)
    addr = node.wallet.fresh_address()
    node.pay(addr, 1234)
    candidate = node.mine_block()
    # node already applied it; validate independently against the prior state
    chain2 = HeaderChain(node.params, [node.get_block(0).header])
    for block in node.blocks[1:-1]:
        chain2.append(block.header)
    validate_block(chain2, utxo, candidate)


def test_coinbase_only_block_grows_utxo(node):
    before = len(node.utxo)
    node.mine_block([])
    assert len(node.utxo) == before + 1


def test_one_in_two_out_changes_set_size_by_one(node):
    node.mine_blocks(2)
    before = len(node.utxo)
    addr = node.wallet.fresh_address()
    node.pay(addr, 100)  # spends 1 coinbase utxo, creates pay + change
    node.mine_block()
    # -1 spent, +2 created, +1 coinbase of the new block
    assert len(node.utxo) == before + 2


def _tamper(block, **header_overrides):
    h = block.header
    fields = dict(version=h.version, prev_hash=h.prev_hash, merkle_root=h.merkle_root,
                  timestamp=h.timestamp, bits=h.bits, nonce=h.nonce)
    fields.update(header_overrides)
    return Block(BlockHeader(**fields), block.txs)


def test_reject_reasons_distinct(node):
    node.mine_blocks(2)
    chain, utxo = fresh_chain(node)
    clone = node.clone_at(node.tip_height)
    candidate = clone.mine_block([])

    with pytest.raises(BlockRejected) as exc:
        validate_block(chain, utxo, _tamper(candidate, prev_hash=b"\xab" * 32))
    assert exc.value.code == "prev-mismatch"

    with pytest.raises(BlockRejected) as exc:
        validate_block(chain, utxo, _tamper(candidate, merkle_root=b"\xcd" * 32))
    assert exc.value.code == "merkle-mismatch"

    with pytest.raises(BlockRejected) as exc:
        validate_block(chain, utxo, _tamper(candidate, bits=0x1D00FFFF))
    assert exc.value.code == "bad-bits"

    # an honest miner refuses a tx spending a nonexistent outpoint outright
    missing = Transaction(
        [TxInput(b"\x99" * 32, 0, 500)], [TxOutput(400, b"\x01" * 20)]
    )
    spender = node.clone_at(node.tip_height)
    with pytest.raises(TxRejected):
        spender.mine_block([missing])


def test_block_with_missing_utxo_tx_rejected(node):
    node.mine_blocks(2)
    chain, utxo = fresh_chain(node)
    ghost = Transaction([TxInput(b"\x99" * 32, 0, 500)], [TxOutput(400, b"\x01" * 20)])
    sk, pk = FAST.generate()
    ghost.inputs[0].unlock = make_unlock(FAST, sk, pk, ghost.sighash())
    # mine a fork block privately that includes the ghost tx by skipping checks
    from routee.headers import expected_target, merkle_root as mr
    from routee.transactions import coinbase_tx

    cb = coinbase_tx(node.tip_height + 1, BLOCK_SUBSIDY, b"\x02" * 20)
    txs = [cb, ghost]
    bits = expected_target(chain, chain.tip_height + 1).bits
    header = None
    nonce = 0
    while True:
        header = BlockHeader(1, chain.tip_hash, mr([t.txid() for t in txs]),
                             node.clock.now, bits, nonce)
        from routee.headers import check_pow
        if check_pow(header):
            break
        nonce += 1
    with pytest.raises(BlockRejected) as exc:
        validate_block(chain, utxo, Block(header, txs))
    assert exc.value.code == "missing-utxo"


def test_intra_block_chain_and_double_spend(node):
    node.mine_blocks(2)
    addr = node.wallet.fresh_address()
    tx1 = node.pay(addr, 5_000)
    # tx2 spends tx1's output inside the same block
    sk, pk = node.wallet.keys[addr]
    vout = next(i for i, o in enumerate(tx1.outputs) if o.lock_address == addr)
    tx2 = Transaction([TxInput(tx1.txid(), vout, 5_000)], [TxOutput(5_000, b"\x03" * 20)])
    tx2.inputs[0].unlock = make_unlock(FAST, sk, pk, tx2.sighash())
    block = node.mine_block(node.mempool + [tx2])
    assert len(block.txs) == 3

    # spending the same outpoint twice within one tx is rejected
    outpoint, entry = next(iter(node.wallet.utxos.items()))
    wsk, wpk = node.wallet.keys[entry.lock_address]
    dup = Transaction(
        [TxInput(outpoint[0], outpoint[1], entry.value),
         TxInput(outpoint[0], outpoint[1], entry.value)],
        [TxOutput(entry.value, b"\x04" * 20)],
    )
    digest = dup.sighash()
    for txin in dup.inputs:
        txin.unlock = make_unlock(FAST, wsk, wpk, digest)
    with pytest.raises(TxRejected) as exc:
        node.mine_block([dup])
    assert exc.value.code == "double-spend"


def test_value_mismatch_and_bad_signature(node):
    node.mine_blocks(2)
    outpoint, entry = next(iter(node.wallet.utxos.items()))
    sk, pk = node.wallet.keys[entry.lock_address]
    before = dict(node.utxo)

    lying = Transaction([TxInput(outpoint[0], outpoint[1], entry.value + 1)],
                        [TxOutput(entry.value, b"\x05" * 20)])
    lying.inputs[0].unlock = make_unlock(FAST, sk, pk, lying.sighash())
    with pytest.raises(TxRejected) as exc:
        node.submit_tx(lying)
    assert exc.value.code == "value-mismatch"

    unsigned = Transaction([TxInput(outpoint[0], outpoint[1], entry.value)],
                           [TxOutput(entry.value - 10, b"\x05" * 20)])
    wrong_sk, wrong_pk = FAST.generate()
    unsigned.inputs[0].unlock = make_unlock(FAST, wrong_sk, wrong_pk, unsigned.sighash())
    with pytest.raises(TxRejected) as exc:
        node.submit_tx(unsigned)
    assert exc.value.code == "bad-signature"
    assert node.utxo == before

    # an accepted transaction waits in the mempool; the set moves only on mining
    honest = Transaction([TxInput(outpoint[0], outpoint[1], entry.value)],
                         [TxOutput(entry.value - 10, b"\x05" * 20)])
    honest.inputs[0].unlock = make_unlock(FAST, sk, pk, honest.sighash())
    node.submit_tx(honest)
    assert node.mempool == [honest]
    assert node.utxo == before


def test_output_exceeding_inputs_rejected(node):
    node.mine_blocks(2)
    outpoint, entry = next(iter(node.wallet.utxos.items()))
    sk, pk = node.wallet.keys[entry.lock_address]
    inflating = Transaction([TxInput(outpoint[0], outpoint[1], entry.value)],
                            [TxOutput(entry.value + 1, b"\x06" * 20)])
    inflating.inputs[0].unlock = make_unlock(FAST, sk, pk, inflating.sighash())
    before = dict(node.utxo)
    with pytest.raises(TxRejected) as exc:
        node.submit_tx(inflating)
    assert exc.value.code == "value-overflow"
    assert node.utxo == before


def test_random_block_sequence_matches_naive_replay():
    node = SimNode(seed=42)
    rng = random.Random(42)
    targets = [node.wallet.fresh_address() for _ in range(8)]
    for _ in range(200):
        if rng.random() < 0.7 and node.wallet.balance() > 10_000:
            for _ in range(rng.randrange(1, 4)):
                node.pay(rng.choice(targets), rng.randrange(100, 5_000), fee=rng.randrange(0, 50))
        node.mine_block()
    replayed = replay_utxo(node.blocks)
    assert replayed == node.utxo


def test_block_serialization_roundtrip(node):
    node.mine_blocks(2)
    addr = node.wallet.fresh_address()
    node.pay(addr, 777)
    block = node.mine_block()
    assert Block.deserialize(block.serialize()) == block


def _block_with_payment() -> bytes:
    node = SimNode(ChainParams.regtest(), seed=11)
    node.mine_blocks(2)
    node.pay(node.wallet.fresh_address(), 777)
    return node.mine_block().serialize()


_BLOCK = _block_with_payment()
_TX = Block.deserialize(_BLOCK).txs[1].serialize()


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.binary(max_size=300), mutated([_BLOCK, _TX])))
def test_block_and_tx_decoders_return_a_value_or_a_routee_error(data):
    for decode in (Block.deserialize, Transaction.deserialize):
        try:
            decode(data)
        except RouteeError:
            pass
