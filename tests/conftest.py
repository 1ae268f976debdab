import socket

import pytest
from hypothesis import strategies as st

from routee.blocks import Block, apply_block
from routee.crypto import CryptoSuite
from routee.errors import RouteeError
from routee.headers import ChainParams
from routee.scenarios import World
from routee.simchain import SimNode
from routee.transactions import Outpoint, TxOutput
from routee import wire

FAST = CryptoSuite.fast_test()


def replay_utxo(blocks: list[Block]) -> dict[Outpoint, TxOutput]:
    """Naive independent replay oracle: fold apply_block over the blocks."""
    utxo: dict[Outpoint, TxOutput] = {}
    for block in blocks:
        utxo = apply_block(utxo, block)
    return utxo


def closed_by_peer(sock: socket.socket) -> bool:
    """True when the peer closes the connection within 5 s."""
    sock.settimeout(5)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


@st.composite
def mutated(draw, samples):
    """One of `samples` with one to three bytes set, inserted or deleted."""
    data = bytearray(draw(st.sampled_from(samples)))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "delete"]))
        if op == "insert":
            data.insert(pos, draw(st.integers(0, 255)))
        elif pos < len(data):
            if op == "set":
                data[pos] = draw(st.integers(0, 255))
            else:
                del data[pos]
    return bytes(data)


def refused_flips(send, req) -> int:
    """Send `req` with each byte flipped in turn and return how many copies
    failed authentication. Every copy is refused; one still of the same kind
    and user (the first 21 bytes) must fail authentication."""
    raw = wire.encode_request(req)
    auth_failures = 0
    for pos in range(len(raw)):
        flipped = raw[:pos] + bytes([raw[pos] ^ 0x01]) + raw[pos + 1:]
        with pytest.raises(wire.RemoteError) as exc:
            send(flipped)
        try:
            wire.decode_request(flipped)
        except RouteeError:
            continue
        if flipped[:21] == raw[:21]:
            assert exc.value.code == "auth-failure", pos
            auth_failures += 1
    return auth_failures


def every_request_kind():
    """One sample of every request kind `wire` declares."""
    batch = [wire.PaymentItem(b"\x02" * 20, 30, 7), wire.PaymentItem(b"\x03" * 20, 1, 2)]
    return [
        wire.AddUser(b"k" * 33, b"\x01" * 20),
        wire.AddDeposit(b"\x01" * 20, 1, b"s" * 32),
        wire.UpdateBoundary(b"\x01" * 20, 2, 9, b"\x04" * 32, b"s" * 32),
        wire.Payment(b"\x01" * 20, 3, batch, b"s" * 32),
        wire.Settle(b"\x01" * 20, 4, 500, 40, b"s" * 32),
        wire.QueryLatestBlock(),
        wire.QueryUser(b"\x01" * 20, b"s" * 32),
        wire.QueryLedger(),
        wire.InsertBlock(b"b" * 90, b"h" * 32),
        wire.GetSettlement(),
        wire.Terminate(b"\x05" * 32, b"h" * 32),
        wire.Snapshot(),
    ]


@pytest.fixture
def node():
    return SimNode(ChainParams.regtest(), seed=11)


def run_conservation_mix(seed, n_ops, n_users, assert_each_step=True, each_step=None):
    """Randomized operation soup; the ledger identity must hold after every
    accepted or rejected operation, and `each_step(harness, users)`, when
    given, runs then too. Returns the harness for final checks."""
    import random

    rng = random.Random(seed)
    harness = World(seed)
    users = [harness.new_user() for _ in range(n_users)]
    fee_avg = harness.hub.estimator.fee_avg

    def check():
        if assert_each_step:
            parts = harness.hub.conservation()
            assert parts["ok"], parts
        if each_step is not None:
            each_step(harness, users)

    for step in range(n_ops):
        roll = rng.random()
        try:
            if roll < 0.18:
                keys = rng.choice(users)
                harness.deposit(keys, rng.randrange(5_000, 80_000))
            elif roll < 0.38:
                keys = rng.choice(users)
                height = rng.randrange(1, harness.hub.chain.tip_height + 1)
                harness.set_boundary(keys, height)
            elif roll < 0.75:
                sender = rng.choice(users)
                batch = [
                    (rng.choice(users).address, rng.randrange(1, 2_000), rng.randrange(2, 40))
                    for _ in range(rng.randrange(1, 4))
                ]
                harness.pay_batch(sender, batch)
            elif roll < 0.92:
                keys = rng.choice(users)
                fee = 34 * fee_avg + rng.randrange(0, 900)
                harness.settle(keys, rng.randrange(1, 3_000), fee)
            elif roll < 0.97:
                harness.insert(harness.node.mine_block())
            else:
                plan = harness.signed_plan()
                if plan is not None:
                    harness.node.submit_tx(plan.transaction)
                harness.insert(harness.node.mine_block())
        except RouteeError:
            pass
        check()

    harness.terminate()
    check()
    rounds = 0
    while not harness.hub.termination_complete and rounds < 64:
        plan = harness.signed_plan()
        if plan is not None:
            harness.node.submit_tx(plan.transaction)
        harness.insert(harness.node.mine_block())
        check()
        rounds += 1
    return harness
