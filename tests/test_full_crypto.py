"""End-to-end check of the full crypto suite: RSA-3072 message auth plus
secp256k1 ECDSA on-chain unlocks. Slower than fast-test mode because of RSA
key generation, so deliberately small."""

from routee import crypto, wire
from routee.client import Keys, sign
from routee.crypto import CryptoSuite
from routee.errors import AuthFailure
from routee.headers import ChainParams
from routee.hub import Hub, HubConfig
from routee.simchain import SimNode
from routee.snapshot import dump_hub, load_hub

import pytest

FULL = CryptoSuite.full()


def test_full_mode_deposit_payment_settlement(monkeypatch):
    parses = []
    load = crypto.load_der_private_key

    def counting_load(*args, **kwargs):
        parses.append(args[0])
        return load(*args, **kwargs)

    monkeypatch.setattr(crypto, "load_der_private_key", counting_load)

    node = SimNode(ChainParams.regtest(), scheme=FULL.onchain, seed=31)
    node.mine_blocks(3)
    host = Keys.generate(FULL.auth)
    hub = Hub(HubConfig(host.public, b"\x68" * 20, 2, node.params, FULL))
    headers = [b.header for b in node.blocks]
    hub.initialize(headers[0], 0, headers[1:], node.blocks)

    def insert(block):
        msg = sign(FULL.auth, host, wire.InsertBlock(block.serialize()), block.header.hash())
        return hub.insert_block(msg)

    alice = Keys.generate(FULL.auth)
    bob = Keys.generate(FULL.auth)
    a_addr = hub.add_user(alice.public, b"\x0a" * 20)
    b_addr = hub.add_user(bob.public, b"\x0b" * 20)

    manager = hub.add_deposit(sign(FULL.auth, alice, wire.AddDeposit(alice.address, 0)))
    node.pay(manager, 100_000)
    insert(node.mine_block())
    assert hub.users[a_addr].balance == 100_000 - 148

    tip = hub.chain.tip_height
    hub.update_boundary_block(
        sign(FULL.auth, bob, wire.UpdateBoundary(bob.address, 0, tip, hub.chain.hash_at(tip)))
    )
    hub.multi_hop_payment(
        sign(FULL.auth, alice, wire.Payment(alice.address, 1, [wire.PaymentItem(b_addr, 500, 5)]))
    )
    assert hub.users[b_addr].balance == 500

    # a signature from the wrong RSA key is rejected
    mallory = Keys.generate(FULL.auth)
    forged = sign(FULL.auth, mallory, wire.Payment(mallory.address, 2, [wire.PaymentItem(b_addr, 1, 5)]))
    forged.sender_address = a_addr
    with pytest.raises(AuthFailure):
        hub.multi_hop_payment(forged)

    # the ECDSA-signed settlement validates on the chain, and signing with
    # keys the hub generated parses no key
    settle = sign(FULL.auth, alice, wire.Settle(alice.address, 2, 10_000, 800))
    parses.clear()
    hub.request_settlement(settle)
    plan = hub.plan
    assert plan is not None
    assert parses == []
    node.submit_tx(plan.transaction)
    insert(node.mine_block())
    assert hub.plans_confirmed == 1
    assert hub.conservation()["ok"]

    # with one deposit left pending, each manager secret is stored once
    second = hub.add_deposit(sign(FULL.auth, bob, wire.AddDeposit(bob.address, 1)))
    assert hub.pending_deposits
    data = dump_hub(hub)
    for secret, _ in hub.manager_keys.values():
        assert data.count(FULL.onchain.secret_bytes(secret)) == 1

    # a restored hub parses each owned deposit's key once, when it signs,
    # and its plan validates on the chain
    node.pay(second, 50_000)
    insert(node.mine_block())
    assert len(hub.owned) == 2
    parses.clear()
    restored = load_hub(dump_hub(hub))
    assert parses == []
    settle = sign(FULL.auth, alice, wire.Settle(alice.address, 3, 10_000, 800))
    parses.clear()
    restored.request_settlement(settle)
    plan = restored.plan
    assert plan is not None
    assert len(parses) == len(plan.transaction.inputs) == 2
    node.submit_tx(plan.transaction)
