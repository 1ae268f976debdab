"""End-to-end check of the full crypto suite: RSA-3072 message auth plus
secp256k1 ECDSA on-chain unlocks. Slower than fast-test mode because of RSA
key generation, so deliberately small."""

import functools
from unittest import mock

from routee import crypto, wire
from routee import hub as hub_mod
from routee.client import Keys, LocalConnection, LocalHubEndpoint
from routee.crypto import SECP256K1_ORDER, CryptoSuite, address_of
from routee.daemon import KEY_POOL_SIZE
from routee.errors import AuthFailure
from routee.netio import MAX_CONNECTIONS
from routee.scenarios import World
from routee.snapshot import dump_hub, load_hub
from routee.transactions import Transaction, parse_unlock

import pytest
from hypothesis import given, settings, strategies as st
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, x25519
from cryptography.hazmat.primitives.asymmetric.utils import decode_dss_signature, encode_dss_signature
from cryptography.hazmat.primitives.serialization import Encoding, NoEncryption, PrivateFormat, PublicFormat

FULL = CryptoSuite.full()


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

    # with one deposit left pending, no manager secret is in the snapshot:
    # not a key's scalar, nor its PKCS#8
    second = hub.add_deposit(bob.sign(wire.AddDeposit(bob.address, w.nonce(bob))))
    assert hub.pending_deposits and hub.next_key == 3  # two deposits and a leftover
    data = dump_hub(hub)
    for index in range(hub.next_key):
        key = hub.manager_key(index)[0]
        assert key.private_numbers().private_value.to_bytes(32, "big") not in data
        assert key.private_bytes(Encoding.DER, PrivateFormat.PKCS8, NoEncryption()) not in data

    # a restored hub parses no key: it derives each input's key when it
    # signs, and its plan validates on the chain
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
    assert parses == [] and len(plan.transaction.inputs) == 2
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
    derived = []
    derive = FULL.onchain.derive
    monkeypatch.setattr(FULL.onchain, "derive", lambda seed, index: derived.append(index) or derive(seed, index))
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

    # with an empty pool the request derives its key itself
    derived.clear()
    manager = deposit()
    assert derived == [0] and hub.key_pool == {} and hub.next_key == 1
    node.pay(manager, 100_000)

    # one key per call, the next indices in order, up to the pool's size
    # and never beyond it
    derived.clear()
    assert fill() == KEY_POOL_SIZE
    assert derived == sorted(hub.key_pool) == list(range(1, 1 + KEY_POOL_SIZE))
    assert hub.fill_key_pool(KEY_POOL_SIZE) and len(derived) == KEY_POOL_SIZE

    # with a filled pool the request takes its key, derived ahead: the same
    # key it would derive
    derived.clear()
    manager = deposit()
    assert derived == [] and manager == address_of(derive(hub.key_seed, 1)[1])
    assert sorted(hub.key_pool) == list(range(2, 1 + KEY_POOL_SIZE))
    node.pay(manager, 100_000)
    w.insert(node.mine_block())
    assert len(hub.owned) == 2

    # the pool is not in the snapshot, and a loaded hub's pool starts empty
    assert load_hub(dump_hub(hub)).key_pool == {}

    # the InsertBlock that confirms a plan builds the next one: its leftover
    # key comes from a filled pool without a derivation, else from the request
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
        derived.clear()
        report = w.insert(block)
        assert report["confirmed_plan"] == 1 and report["plan_built"] == 1
        assert derived == ([] if filled else [hub.plan.leftover_key])
        assert hub.sign_plan()
        w.confirm_outstanding()
        assert hub.plan is None and hub.conservation()["ok"]


def test_a_key_derived_ahead_is_the_key_its_request_derives():
    harness = World(seed=3)
    alice = harness.new_user()
    ahead = load_hub(dump_hub(harness.hub))
    while not ahead.fill_key_pool(KEY_POOL_SIZE):
        pass
    assert sorted(ahead.key_pool) == list(range(KEY_POOL_SIZE))
    for nonce in range(KEY_POOL_SIZE + 1):  # the last one past the pool
        msg = alice.sign(wire.AddDeposit(alice.address, nonce))
        assert ahead.add_deposit(msg) == harness.hub.add_deposit(msg)
    assert ahead.key_pool == {} and ahead.next_key == harness.hub.next_key


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


@pytest.fixture
def rsa_verifications(monkeypatch):
    """The public key of each RSA verification made from here on:
    `RsaScheme.verify` looks the parsed key up by this name every time."""
    made = []
    lookup = crypto._rsa_public_key

    def counting_lookup(der):
        made.append(der)
        return lookup(der)

    monkeypatch.setattr(crypto, "_rsa_public_key", counting_lookup)
    return made


def send_raw(conn: LocalConnection, raw: bytes) -> dict:
    """Seal a request's exact bytes into `conn`'s session and decode the reply."""
    frame = wire.pack_frame(wire.FRAME_ENVELOPE, conn.session.seal(raw))
    _, reply = wire.unpack_frame(conn.send_raw_frame(frame)[-1])
    return wire.decode_response(conn.session.open(reply))


def funded_pair(seed: int):
    w = World(seed=seed, premine=3, suite=FULL)
    alice, bob = w.new_user(), w.new_user()
    w.deposit(alice, 100_000)
    w.set_boundary(bob)
    return w, alice, bob


def test_a_repeated_query_is_verified_once_and_each_write_once(rsa_verifications):
    w, alice, bob = funded_pair(34)
    conn = LocalConnection(LocalHubEndpoint(w.hub))
    query = alice.sign(wire.QueryUser(alice.address), conn.session.session_id)
    rsa_verifications.clear()
    answers = [conn.request(query) for _ in range(10)]
    assert rsa_verifications == [alice.public]
    assert answers == [answers[0]] * 10 and answers[0]["balance"] == w.balance(alice)
    # a write carries its nonce, so no two are alike: each is verified
    for write in (
        lambda nonce: wire.Payment(alice.address, nonce, [wire.PaymentItem(bob.address, 500, 5)]),
        lambda nonce: wire.Settle(alice.address, nonce, 10_000, 800),
        lambda nonce: wire.AddDeposit(alice.address, nonce),
    ):
        rsa_verifications.clear()
        conn.request(alice.sign(write(w.nonce(alice))))
        assert rsa_verifications == [alice.public]
    # the kept proofs cover a reader on every connection a daemon serves
    assert hub_mod.QUERY_PROOFS_KEPT >= MAX_CONNECTIONS


def test_a_write_replayed_into_another_session_is_verified_and_stale(rsa_verifications):
    # a write's signature holds in any session; its spent nonce refuses it
    w, alice, bob = funded_pair(35)
    endpoint = LocalHubEndpoint(w.hub)
    session_a = LocalConnection(endpoint)
    nonce = w.nonce(alice)
    writes = [
        wire.Payment(alice.address, nonce, [wire.PaymentItem(bob.address, 500, 5)]),
        wire.Settle(alice.address, nonce + 1, 10_000, 800),
    ]
    raws = [wire.encode_request(alice.sign(write)) for write in writes]
    assert send_raw(session_a, raws[0]) == {"accepted": 1}
    assert "enqueue_seq" in send_raw(session_a, raws[1])
    assert w.nonce(alice) == nonce + 2

    session_b = LocalConnection(endpoint)
    state = dump_hub(w.hub)
    balances = (w.balance(alice), w.balance(bob))
    for raw in raws:
        rsa_verifications.clear()
        with pytest.raises(wire.RemoteError) as exc:
            send_raw(session_b, raw)
        assert exc.value.code == "stale-request"
        assert rsa_verifications == [alice.public]
        assert w.nonce(alice) == nonce + 2 and (w.balance(alice), w.balance(bob)) == balances
        assert dump_hub(w.hub) == state


def test_a_query_is_bound_to_its_session_and_only_a_good_proof_is_kept():
    w = World(seed=36, premine=2, suite=FULL)
    alice = w.new_user()
    endpoint = LocalHubEndpoint(w.hub)
    session_a, session_b = LocalConnection(endpoint), LocalConnection(endpoint)
    raw = wire.encode_request(alice.sign(wire.QueryUser(alice.address), session_a.session.session_id))
    assert send_raw(session_a, raw)["address"] == alice.address
    good = dict(w.hub.query_proofs)
    assert len(good) == 1
    # the digest carries the session id, so session B verifies another one
    with pytest.raises(wire.RemoteError) as exc:
        send_raw(session_b, raw)
    assert exc.value.code == "auth-failure"
    # after a good proof, the same user's corrupted signature is refused each
    # time, and so is a signature of 1 MiB; neither is kept, and the good
    # proof is still answered
    corrupted = raw[:-1] + bytes([raw[-1] ^ 1])
    oversized = wire.encode_request(wire.QueryUser(alice.address, bytes(1 << 20)))
    for bad in (corrupted, corrupted, oversized):
        with pytest.raises(wire.RemoteError) as exc:
            send_raw(session_a, bad)
        assert exc.value.code == "auth-failure"
        assert w.hub.query_proofs == good
        assert send_raw(session_a, raw)["address"] == alice.address


@functools.cache
def two_readers() -> tuple[World, list[Keys]]:
    w = World(seed=37, premine=2, suite=FULL)
    return w, [w.new_user(), w.new_user()]


@functools.cache
def query_signature(signer: int, reader: int, session: int) -> bytes:
    _, users = two_readers()
    msg = users[signer].sign(wire.QueryUser(users[reader].address), bytes([session]) * 8)
    return msg.signature


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2),
                          st.integers(0, 383), st.sampled_from((0, 0, 1, 0x80))), max_size=12))
def test_a_kept_query_proof_answers_as_its_verification_does(reads):
    # two users read over three sessions, each query signed by its reader or
    # by the other user, some with a byte flipped, into a memo of two proofs
    # so that it starts over and verifies them again
    w, users = two_readers()
    w.hub.query_proofs.clear()
    with mock.patch.object(hub_mod, "QUERY_PROOFS_KEPT", 2):
        for signer, reader, session, at, mask in reads:
            session_id = bytes([session]) * 8
            signature = bytearray(query_signature(signer, reader, session))
            signature[at] ^= mask
            msg = wire.QueryUser(users[reader].address, bytes(signature))
            verdict = FULL.auth.verify(users[reader].public, msg.signing_digest(session_id), msg.signature)
            assert verdict == (signer == reader and mask == 0)
            if verdict:
                assert w.hub.query_user(msg, session_id)["address"] == users[reader].address
            else:
                with pytest.raises(AuthFailure):
                    w.hub.query_user(msg, session_id)
            assert len(w.hub.query_proofs) <= 2
            assert all(any(FULL.auth.verify(user.public, digest, signature) for user in users)
                       for digest, signature in w.hub.query_proofs.items())
