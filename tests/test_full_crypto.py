"""End-to-end check of the full crypto suite: RSA-3072 message auth plus
secp256k1 ECDSA on-chain unlocks. Slower than fast-test mode because of RSA
key generation, so deliberately small."""

from routee import crypto, wire
from routee.client import Keys, LocalConnection, LocalHubEndpoint
from routee.crypto import CryptoSuite, address_of
from routee.daemon import KEY_POOL_SIZE
from routee.errors import AuthFailure
from routee.scenarios import World
from routee.snapshot import dump_hub, load_hub
from routee.transactions import Transaction, parse_unlock

import pytest
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, x25519
from cryptography.hazmat.primitives.asymmetric.utils import decode_dss_signature, encode_dss_signature
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

FULL = CryptoSuite.full()
SECP256K1_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


def malleate(unlock: bytes) -> bytes:
    """The same unlock with its ECDSA signature (r, s) swapped for (r, n - s),
    which verifies just as well."""
    public_key, signature = parse_unlock(unlock)
    r, s = decode_dss_signature(signature)
    swapped = encode_dss_signature(r, SECP256K1_ORDER - s)
    return (len(public_key).to_bytes(2, "big") + public_key
            + len(swapped).to_bytes(2, "big") + swapped)


def test_rsa_sign_parses_each_private_key_once(monkeypatch):
    parses = []
    load = crypto.load_der_private_key

    def counting_load(*args, **kwargs):
        parses.append(args[0])
        return load(*args, **kwargs)

    monkeypatch.setattr(crypto, "load_der_private_key", counting_load)
    sk, pk = FULL.auth.generate()
    messages = (b"one", b"two")
    signatures = [FULL.auth.sign(sk, m) for m in messages]
    assert parses == [sk]
    assert isinstance(sk, bytes)
    assert all(FULL.auth.verify(pk, m, sig) for m, sig in zip(messages, signatures))


def test_full_mode_deposit_payment_settlement(monkeypatch):
    parses = []
    load = crypto.load_der_private_key

    def counting_load(*args, **kwargs):
        parses.append(args[0])
        return load(*args, **kwargs)

    monkeypatch.setattr(crypto, "load_der_private_key", counting_load)
    w = World(seed=31, premine=3, suite=FULL)
    hub, node = w.hub, w.node
    alice, bob = w.new_user(), w.new_user()

    w.deposit(alice, 100_000)
    assert w.balance(alice) == 100_000 - 148

    w.set_boundary(bob)
    w.pay(alice, bob.address, 500, 5)
    assert w.balance(bob) == 500

    # a signature from the wrong RSA key is rejected
    mallory = Keys.generate(FULL.auth)
    forged = mallory.sign(wire.Payment(mallory.address, 2, [wire.PaymentItem(bob.address, 1, 5)]))
    forged.sender_address = alice.address
    with pytest.raises(AuthFailure):
        hub.multi_hop_payment(forged)

    # the ECDSA-signed settlement validates on the chain, and signing with
    # keys the hub generated parses no key
    settle = alice.sign(wire.Settle(alice.address, w.nonce(alice), 10_000, 800))
    parses.clear()
    hub.request_settlement(settle)
    assert hub.sign_plan()
    plan = hub.plan
    assert plan is not None
    assert parses == []
    w.confirm_outstanding()
    assert hub.plans_confirmed == 1
    assert hub.conservation()["ok"]

    # with one deposit left pending, each manager secret is stored once
    second = hub.add_deposit(bob.sign(wire.AddDeposit(bob.address, w.nonce(bob))))
    assert hub.pending_deposits
    data = dump_hub(hub)
    for secret, _ in hub.manager_keys.values():
        assert data.count(FULL.onchain.secret_bytes(secret)) == 1

    # a restored hub parses each owned deposit's key once, when it signs,
    # and its plan validates on the chain
    node.pay(second, 50_000)
    w.insert(node.mine_block())
    assert len(hub.owned) == 2
    parses.clear()
    restored = load_hub(dump_hub(hub))
    assert parses == []
    settle = alice.sign(wire.Settle(alice.address, w.nonce(alice), 10_000, 800))
    parses.clear()
    restored.request_settlement(settle)
    assert restored.sign_plan()
    plan = restored.plan
    assert plan is not None
    assert len(parses) == len(plan.transaction.inputs) == 2
    node.submit_tx(plan.transaction)


def test_plan_confirms_when_its_signatures_are_malleated():
    w = World(seed=32, premine=3, suite=FULL)
    hub, node = w.hub, w.node
    alice = w.new_user()
    for _ in range(2):
        w.deposit(alice, 100_000)
    w.settle(alice, 10_000, 800)
    assert hub.sign_plan()
    plan = hub.plan
    assert plan.tx_inputs == 2

    # whoever holds the plan may reshape every signature before it is mined
    tx = Transaction.deserialize(plan.transaction.serialize())
    for txin in tx.inputs:
        txin.unlock = malleate(txin.unlock)
    assert tx.sighash() == plan.transaction.sighash()
    assert tx.txid() != plan.transaction.txid()
    node.submit_tx(tx)
    report = w.insert(node.mine_block())
    assert report["confirmed_plan"] == 1
    assert hub.plans_confirmed == 1 and hub.plan is None
    leftover = (tx.txid(), len(tx.outputs) - 1)
    assert list(hub.owned) == [leftover]
    assert hub.owned[leftover].value == tx.outputs[-1].value
    assert hub.conservation()["ok"]

    # the next plan spends the leftover the chain holds
    w.settle(alice, 10_000, 800)
    assert hub.sign_plan()
    assert hub.plan.input_outpoints == [leftover]
    assert w.confirm_outstanding()["confirmed_plan"] == 1
    assert hub.conservation()["ok"]


def test_key_pool_takes_key_generation_out_of_the_requests(monkeypatch):
    made = []
    generate = FULL.onchain.generate

    def counting_generate(rng=None):
        made.append(rng)
        return generate(rng)

    monkeypatch.setattr(FULL.onchain, "generate", counting_generate)
    w = World(seed=33, premine=3, suite=FULL)
    hub, node = w.hub, w.node
    alice = w.new_user()

    def deposit():
        return hub.add_deposit(alice.sign(wire.AddDeposit(alice.address, w.nonce(alice))))

    def fill():
        turns = 1
        while not hub.fill_key_pool(KEY_POOL_SIZE):
            turns += 1
        return turns

    # with an empty pool the request makes its key itself (each count
    # starts at the request)
    made.clear()
    manager = deposit()
    assert made == [hub.rng] and hub.key_pool == []
    node.pay(manager, 100_000)

    # one key per call, up to the pool's size and never beyond it
    made.clear()
    assert fill() == KEY_POOL_SIZE
    assert made == [None] * KEY_POOL_SIZE and len(hub.key_pool) == KEY_POOL_SIZE
    assert hub.fill_key_pool(KEY_POOL_SIZE) and len(made) == len(hub.key_pool) == KEY_POOL_SIZE

    # with a filled pool the request takes a key made ahead
    made.clear()
    sk, pk = hub.key_pool[-1]
    manager = deposit()
    assert made == [] and manager == address_of(pk) and hub.manager_keys[manager] == (sk, pk)
    node.pay(manager, 100_000)
    w.insert(node.mine_block())
    assert len(hub.owned) == 2

    # no key waiting in the pool is in the snapshot, and a loaded hub's
    # pool starts empty
    data = dump_hub(hub)
    assert hub.key_pool
    assert not any(FULL.onchain.secret_bytes(secret) in data for secret, _ in hub.key_pool)
    assert load_hub(data).key_pool == []

    # the InsertBlock that confirms a plan builds the next one: its leftover
    # key comes from a filled pool without a key made, else from the request
    for filled in (True, False):
        w.settle(alice, 10_000, 800)
        assert hub.plan is not None and hub.sign_plan()
        w.settle(alice, 10_000, 800)  # queues behind the outstanding plan
        if filled:
            fill()
        else:
            hub.key_pool.clear()
        node.submit_tx(hub.plan.transaction)
        block = node.mine_block()
        made.clear()
        report = w.insert(block)
        assert report["confirmed_plan"] == 1 and report["plan_built"] == 1
        assert made == ([] if filled else [hub.rng])
        assert hub.sign_plan()
        w.confirm_outstanding()
        assert hub.plan is None and hub.conservation()["ok"]


def test_fast_test_hub_never_fills_its_pool():
    harness = World(seed=3)
    hub = harness.hub
    counter = hub.rng.counter
    assert hub.fill_key_pool(KEY_POOL_SIZE)
    assert hub.key_pool == [] and hub.rng.counter == counter


def _spki(private_key) -> bytes:
    return private_key.public_key().public_bytes(Encoding.DER, PublicFormat.SubjectPublicKeyInfo)


# SubjectPublicKeyInfo DER the parser has no key type for: algorithm OID
# 1.2.3.4, and an EC key on curve OID 1.2.3.5
UNKNOWN_ALGORITHM_SPKI = bytes.fromhex("302a" "3005" "06032a0304" "032100") + bytes(32)
UNKNOWN_CURVE_SPKI = bytes.fromhex("3054" "300e" "06072a8648ce3d0201" "06032a0305" "03420004") + bytes(64)


def test_a_registered_key_that_is_not_rsa_fails_authentication():
    # an unsigned AddUser takes any key; a key of another kind, or of a kind
    # the parser does not know, must fail as a bad signature does, not fault the hub
    keys = [_spki(x25519.X25519PrivateKey.generate()), _spki(ed25519.Ed25519PrivateKey.generate()),
            _spki(ec.generate_private_key(ec.SECP256R1())), UNKNOWN_ALGORITHM_SPKI, UNKNOWN_CURVE_SPKI]
    assert not any(FULL.auth.verify(key, b"m", bytes(384)) for key in keys)
    w = World(seed=5, premine=2, suite=FULL)
    conn = LocalConnection(LocalHubEndpoint(w.hub))
    for key in (keys[0], UNKNOWN_ALGORITHM_SPKI):
        address = conn.request(wire.AddUser(key, bytes(20)))["user_address"]
        with pytest.raises(wire.RemoteError) as exc:
            conn.request(wire.AddDeposit(address, 0, bytes(384)))
        assert exc.value.code == "auth-failure"
    assert conn.request(wire.QueryLatestBlock())["height"] == w.hub.chain.tip_height
