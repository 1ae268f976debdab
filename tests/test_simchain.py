import pytest

from routee.crypto import SCHEMES, address_of
from routee.errors import TxRejected
from routee.headers import ChainParams
from routee.lightclient import NodeHeaderSource, StaticHeaderSource, sync_headers
from routee.simchain import SimClock, SimNode, forge_chain
from routee.transactions import Transaction, TxInput, TxOutput, make_unlock

from conftest import replay_utxo


def scripted_run(seed):
    node = SimNode(seed=seed)
    addrs = [node.wallet.fresh_address() for _ in range(3)]
    node.mine_blocks(4)
    node.pay(addrs[0], 1_000)
    node.pay(addrs[1], 2_000)
    node.mine_block()
    node.pay(addrs[2], 3_000, fee=25)
    node.mine_blocks(2)
    return node


def test_seeded_simulation_replays_bit_identically():
    a = scripted_run(99)
    b = scripted_run(99)
    assert a.chain.tip_hash == b.chain.tip_hash
    assert [blk.serialize() for blk in a.blocks] == [blk.serialize() for blk in b.blocks]
    assert a.utxo == b.utxo


def test_different_seeds_diverge():
    assert scripted_run(1).chain.tip_hash != scripted_run(2).chain.tip_hash


def test_mempool_drained_into_block():
    node = SimNode(seed=4)
    node.mine_blocks(2)
    node.pay(node.wallet.fresh_address(), 500)
    node.pay(node.wallet.fresh_address(), 600)
    assert len(node.mempool) == 2
    block = node.mine_block()
    assert len(block.txs) == 3
    assert not node.mempool


def test_mining_checks_each_transaction_once(monkeypatch):
    from routee import blocks

    node = SimNode(seed=4)
    node.mine_blocks(2)
    for amount in (500, 600, 700):
        node.pay(node.wallet.fresh_address(), amount)
    checked = []
    check_tx = blocks.check_tx

    def counting_check(tx, view):
        checked.append(tx)
        return check_tx(tx, view)

    monkeypatch.setattr(blocks, "check_tx", counting_check)
    block = node.mine_block()
    assert checked == block.txs[1:]
    assert len(checked) == 3
    assert replay_utxo(node.blocks) == node.utxo


def test_submit_rejects_missing_utxo():
    node = SimNode(seed=4)
    node.mine_blocks(2)
    from routee.transactions import Transaction, TxInput, TxOutput

    ghost = Transaction([TxInput(b"\x77" * 32, 0, 100)], [TxOutput(90, b"\x01" * 20)])
    with pytest.raises(TxRejected) as exc:
        node.submit_tx(ghost)
    assert exc.value.code == "missing-utxo"


def test_clock_drives_timestamps():
    clock = SimClock(1_700_000_000)
    node = SimNode(ChainParams.regtest(target_spacing=60), seed=1, clock=clock)
    b1 = node.mine_block()
    b2 = node.mine_block()
    assert b2.header.timestamp - b1.header.timestamp == 60


def test_retarget_across_boundary_while_mining():
    # halving the spacing for a full window tightens the target at the boundary
    params = ChainParams.regtest(retarget_interval=4, target_spacing=600)
    node = SimNode(params, seed=2)
    for _ in range(3):
        node.clock.advance(-300)  # net +300s per block instead of +600
        node.mine_block()
    before = node.chain.header_at(3).bits
    node.clock.advance(-300)
    node.mine_block()  # height 4: boundary
    after = node.chain.header_at(4).bits
    assert after != before


def test_clone_at_replays_to_same_state():
    node = scripted_run(7)
    clone = node.clone_at(4)
    assert clone.tip_height == 4
    assert clone.chain.tip_hash == node.chain.hash_at(4)
    assert clone.utxo == replay_utxo(node.blocks[:5])


def test_forged_chain_is_internally_valid_but_foreign_to_main():
    node = SimNode(seed=13)
    node.mine_blocks(5)
    manager = b"\x0a" * 20
    forged = forge_chain(node, 5, [(manager, 9_000)])
    assert len(forged) == 2
    # internally valid: a detached validator accepts every forged block
    clone = node.clone_at(5)
    for block in forged:
        from routee.blocks import validate_block, apply_block

        validate_block(clone.chain, clone.utxo, block)
        clone.chain.append(block.header)
        clone.utxo = apply_block(clone.utxo, block)
    deposit_tx = forged[1].txs[1]
    assert any(o.lock_address == manager and o.value == 9_000 for o in deposit_tx.outputs)
    # but its funding does not exist on the main chain
    with pytest.raises(TxRejected) as exc:
        node.submit_tx(deposit_tx)
    assert exc.value.code == "missing-utxo"
    # and the main node never saw the forged blocks
    assert node.tip_height == 5


def test_forged_chain_loses_work_comparison():
    node = SimNode(seed=13)
    node.mine_blocks(5)
    forged_blocks = forge_chain(node, 3)
    node.mine_blocks(2)  # honest chain pulls ahead
    forged_headers = [b.header.serialize() for b in node.blocks[:4]] + [
        b.header.serialize() for b in forged_blocks
    ]
    store = sync_headers(
        [("honest", NodeHeaderSource(node)), ("forged", StaticHeaderSource(forged_headers))],
        node.params,
    )
    assert store.selected.peer_id == "honest"
    assert store.selected.chain.cumulative_work >= store.candidates["forged"].chain.cumulative_work


def test_high_volume_blocks_all_valid():
    # 2,500 transactions per block, all valid; a fan-out block creates the
    # outputs and every tx regenerates its output for the next round
    from routee.transactions import Transaction, TxInput, TxOutput, make_unlock

    per_block = 2_500
    blocks = 100
    node = SimNode(seed=21)
    node.mine_blocks(1)

    sk, pk = node.scheme.generate(node.rng)
    from routee.crypto import address_of

    hot_addr = address_of(pk)
    coin_op, coin_out = next(iter(node.wallet.utxos.items()))
    wsk, wpk = node.wallet.keys[coin_out.lock_address]
    fanout = Transaction(
        [TxInput(coin_op[0], coin_op[1], coin_out.value)],
        [TxOutput(10_000, hot_addr) for _ in range(per_block)]
        + [TxOutput(coin_out.value - per_block * 10_000, node.wallet.fresh_address())],
    )
    fanout.inputs[0].unlock = make_unlock(node.scheme, wsk, wpk, fanout.sighash())
    node.submit_tx(fanout)
    node.mine_block()

    fanout_txid = fanout.txid()
    spendable = [(fanout_txid, i) for i in range(per_block)]
    for _ in range(blocks):
        txs = []
        for op in spendable:
            tx = Transaction([TxInput(op[0], op[1], 10_000)], [TxOutput(10_000, hot_addr)])
            tx.inputs[0].unlock = make_unlock(node.scheme, sk, pk, tx.sighash())
            txs.append(tx)
        block = node.mine_block(txs)
        assert len(block.txs) == per_block + 1
        spendable = [(tx.txid(), 0) for tx in txs]
    assert replay_utxo(node.blocks) == node.utxo


def _fund(node, scheme, amount=5_000):
    """A confirmed output of `amount` locked to a fresh `scheme` key: (sk, pk, outpoint)."""
    sk, pk = scheme.generate()
    funding = node.pay(address_of(pk), amount)
    node.mine_block()
    return sk, pk, (funding.txid(), 0)


def test_fast_wallet_node_accepts_an_ecdsa_signed_spend():
    # the node's scheme picks its wallet's keys; each unlock verifies by its own
    node = SimNode(seed=8)
    ecdsa = SCHEMES["ecdsa"]
    sk, pk, (txid, vout) = _fund(node, ecdsa)
    spend = Transaction([TxInput(txid, vout, 5_000)], [TxOutput(4_000, b"\x01" * 20)])
    spend.inputs[0].unlock = make_unlock(ecdsa, sk, pk, spend.sighash())
    node.submit_tx(spend)
    assert node.mine_block().txs[1:] == [spend]


@pytest.mark.parametrize("wallet", ["fast", "ecdsa"])
def test_revealed_ecdsa_key_cannot_unlock_by_hmac(wallet):
    # an HMAC keyed with a revealed ECDSA public key is a valid fast signature
    # for that key; a 33-byte key names ECDSA alone, so it is refused
    node = SimNode(scheme=SCHEMES[wallet], seed=9)
    _, pk, (txid, vout) = _fund(node, SCHEMES["ecdsa"])
    forged = Transaction([TxInput(txid, vout, 5_000)], [TxOutput(4_000, b"\x01" * 20)])
    forged.inputs[0].unlock = make_unlock(SCHEMES["fast"], pk, pk, forged.sighash())
    with pytest.raises(TxRejected) as exc:
        node.submit_tx(forged)
    assert exc.value.code == "bad-signature"
