import random
from collections import deque

import pytest

from routee import wire
from routee.blocks import Block
from routee.client import Keys, LocalConnection, LocalHubEndpoint
from routee.crypto import CryptoSuite, DeterministicRng, address_of, sha256
from routee.errors import (
    AlreadyInitialized,
    AlreadyRegistered,
    AuthFailure,
    FeeBelowMinimum,
    FeeTooLow,
    HostAuthFailure,
    InitFailure,
    InsufficientBalance,
    InvalidBlock,
    MonotonicityViolation,
    NotInChain,
    NotOnTip,
    ReceiverNotReady,
    RouteeError,
    SnapshotError,
    StaleRequest,
    UnknownType,
)
from routee.headers import BlockHeader, check_pow
from routee.hub import DEPOSIT_EXPIRY_BLOCKS, FEE_WINDOW_CAPACITY, Hub, HubConfig, OwnedDeposit
from routee.scenarios import World
from routee.simchain import SimNode
from routee.snapshot import TRAILER_SIZE, HubImage, dump_hub, load_hub
from routee.transactions import BLOCK_SUBSIDY, MAX_MONEY, Transaction, TxInput, TxOutput, coinbase_tx, formula_size

from conftest import every_request_kind

FAST = CryptoSuite.fast_test()


# ------------------------------------------------------------------
# initialization

def test_init_verifies_headers_and_reports_bad_height():
    node = SimNode(seed=1)
    node.mine_blocks(6)
    host = Keys.generate(FAST.auth)
    headers = [b.header for b in node.blocks]
    broken = headers[:3] + headers[4:]  # missing link at height 3
    hub = Hub(HubConfig(host.public, b"\x68" * 20, 1, node.params, FAST))
    with pytest.raises(InitFailure) as exc:
        hub.initialize(headers[0], 0, broken[1:], [])
    assert "height 3" in exc.value.detail


def test_init_and_snapshot_load_refuse_a_base_without_proof_of_work():
    # one header at a near-zero target would claim about 2^255 work
    forged = BlockHeader(1, bytes(32), bytes(32), 0, 0x03000001, 0)
    node = SimNode(seed=1)
    host = Keys.generate(FAST.auth)
    hub = Hub(HubConfig(host.public, b"\x68" * 20, 1, node.params, FAST))
    with pytest.raises(InitFailure) as exc:
        hub.initialize(forged, 0, [], [])
    assert "bad-bits" in exc.value.detail and hub.chain is None
    # the same base written into an honest hub's snapshot image
    hub.initialize(node.blocks[0].header, 0, [], [])
    data = dump_hub(hub)
    image = wire.decode(HubImage, data[6:-TRAILER_SIZE])
    image.headers = [wire.RawHeader(forged.serialize())]
    body = data[:6] + wire.encode(image)
    with pytest.raises(SnapshotError, match="bad-bits"):
        load_hub(body + sha256(body))


def test_init_refuses_a_chain_that_does_not_start_at_genesis():
    # a start above 0 would be taken on trust: this header has no proof of work
    node = SimNode(seed=1)
    hub = _bare_hub(node)
    unworked = _next_block(node, proof_of_work=False).header
    before = dump_hub(hub)
    for start in (100_000, 1):
        with pytest.raises(InitFailure, match=f"not at height {start}"):
            hub.initialize(unworked, start, [], [])
        assert hub.chain is None and dump_hub(hub) == before
    with pytest.raises(InitFailure, match="bad-pow"):
        hub.initialize(unworked, 0, [], [])


def test_init_runs_exactly_once():
    harness = World()
    with pytest.raises(AlreadyInitialized):
        harness.hub.initialize(harness.node.blocks[0].header, 0, [], [])


def test_fee_window_primes_average():
    # every window block carries one tx of formula size 226 paying fee 2260,
    # so each per-block sample is 2260 / 226 = 10
    node = SimNode(seed=2)
    node.mine_blocks(2)
    sink = b"\x51" * 20  # external: keeps the faucet on single huge inputs
    fee_blocks = []
    for _ in range(5):
        node.pay(sink, 40_000, fee=2_260)  # 1-in/2-out: 148 + 68 + 10 = 226
        fee_blocks.append(node.mine_block())
    host = Keys.generate(FAST.auth)
    hub = Hub(HubConfig(host.public, b"\x68" * 20, 1, node.params, FAST))
    headers = [b.header for b in node.blocks]
    hub.initialize(headers[0], 0, headers[1:], fee_blocks)
    assert hub.estimator.fee_avg == 10


def test_init_at_full_window_scale():
    # a full 2,016-header chain plus 2,016 fee-window blocks comes up ready
    node = SimNode(seed=6)
    node.mine_blocks(2_016)
    host = Keys.generate(FAST.auth)
    hub = Hub(HubConfig(host.public, b"\x68" * 20, 1, node.params, FAST))
    headers = [b.header for b in node.blocks]
    hub.initialize(headers[0], 0, headers[1:], node.blocks[-2_016:])
    assert hub.chain.tip_height == 2_016
    assert hub.query_latest_block()["hash"] == node.chain.tip_hash
    assert hub.estimator.fee_avg == 1  # empty blocks leave the floor value


def _fee_chain(seed: int, fee_blocks: int) -> SimNode:
    """A node whose last `fee_blocks` blocks each carry one transaction with
    fee sample 10."""
    node = SimNode(seed=seed)
    node.mine_blocks(2)
    for _ in range(fee_blocks):
        node.pay(b"\x51" * 20, 40_000, fee=2_260)  # 1-in/2-out: formula size 226
        node.mine_block()
    return node


def _bare_hub(node: SimNode) -> Hub:
    return Hub(HubConfig(b"", b"\x68" * 20, 1, node.params, FAST))


def test_init_takes_the_chain_last_blocks_in_order_as_its_fee_window():
    node = _fee_chain(seed=4, fee_blocks=3)
    headers = [b.header for b in node.blocks]
    last, before_last = node.blocks[-1], node.blocks[-2]
    # repeated, out of order, and a run that stops short of the tip
    for window in ([last] * 3, [last, before_last], node.blocks[-3:-1]):
        hub = _bare_hub(node)
        with pytest.raises(InitFailure, match="fee window block at height"):
            hub.initialize(headers[0], 0, headers[1:], window)
        assert hub.chain is None and not hub.estimator.window
    hub.initialize(headers[0], 0, headers[1:], [before_last, last])
    assert list(hub.estimator.window) == [10, 10]


def test_a_refused_init_leaves_no_sample_for_the_next_init():
    node = _fee_chain(seed=4, fee_blocks=1)
    hub = _bare_hub(node)
    good = node.blocks[-1]
    bad = _mined_paying(node, bytes(20), 1_000, 0)  # a fee below 0, after the good block
    headers = [b.header for b in node.blocks]
    with pytest.raises(InitFailure, match="fee out of bounds"):
        hub.initialize(headers[0], 0, headers[1:] + [bad.header], [good, bad])
    assert hub.chain is None and not hub.estimator.window
    hub.initialize(headers[0], 0, headers[1:], [good])
    assert list(hub.estimator.window) == [10]


def test_fee_window_rejects_foreign_blocks():
    node = SimNode(seed=2)
    node.mine_blocks(3)
    stranger = SimNode(seed=979)
    stranger.mine_blocks(2)
    host = Keys.generate(FAST.auth)
    hub = Hub(HubConfig(host.public, b"\x68" * 20, 1, node.params, FAST))
    headers = [b.header for b in node.blocks]
    with pytest.raises(InitFailure):
        hub.initialize(headers[0], 0, headers[1:], [stranger.get_block(1)])


# ------------------------------------------------------------------
# add_user / add_deposit

def test_add_user_fresh_duplicate_distinct():
    harness = World()
    k1 = Keys.generate(FAST.auth)
    k2 = Keys.generate(FAST.auth)
    a1 = harness.hub.add_user(k1.public, b"\x01" * 20)
    assert harness.hub.users[a1].balance == 0
    assert harness.hub.users[a1].boundary_block is None
    assert harness.hub.users[a1].max_source_block is None
    with pytest.raises(AlreadyRegistered):
        harness.hub.add_user(k1.public, b"\x01" * 20)
    a2 = harness.hub.add_user(k2.public, b"\x02" * 20)
    assert a1 != a2
    assert a1 == address_of(k1.public)


def test_add_deposit_grows_pending_and_blocks_replay():
    harness = World()
    alice = harness.new_user()
    msg = alice.sign(wire.AddDeposit(alice.address, 0))
    m1 = harness.hub.add_deposit(msg)
    assert len(m1) == 20
    assert len(harness.hub.pending_deposits) == 1
    with pytest.raises(StaleRequest):
        harness.hub.add_deposit(msg)  # identical replayed message
    m2 = harness.hub.add_deposit(alice.sign(wire.AddDeposit(alice.address, 1)))
    assert m1 != m2
    assert len(harness.hub.pending_deposits) == 2


def test_bad_signature_does_not_consume_nonce():
    harness = World()
    alice = harness.new_user()
    msg = alice.sign(wire.AddDeposit(alice.address, 0))
    msg.signature = bytes(32)
    with pytest.raises(AuthFailure):
        harness.hub.add_deposit(msg)
    assert harness.nonce(alice) == 0


def test_authentic_rejection_consumes_nonce():
    harness = World()
    alice = harness.new_user()
    bob = harness.new_user()
    harness.set_boundary(bob)
    # no balance: payment rejected, but the nonce is spent
    msg = wire.Payment(alice.address, 0, [wire.PaymentItem(bob.address, 10, 5)])
    msg = alice.sign(msg)
    with pytest.raises(InsufficientBalance):
        harness.hub.multi_hop_payment(msg)
    assert harness.nonce(alice) == 1
    with pytest.raises(StaleRequest):
        harness.hub.multi_hop_payment(msg)  # replaying the rejection is dead


# ------------------------------------------------------------------
# boundary blocks

def test_boundary_opens_receive_channel_and_is_monotonic():
    harness = World()
    bob = harness.new_user()
    state = harness.hub.users[bob.address]
    assert state.boundary_block is None
    harness.set_boundary(bob, 4)
    assert state.boundary_block is not None
    assert state.boundary_block == 4
    with pytest.raises(MonotonicityViolation):
        harness.set_boundary(bob, 3)


def test_boundary_rejects_forged_hash():
    harness = World()
    bob = harness.new_user()
    from routee.simchain import forge_chain

    forged = forge_chain(harness.node, harness.node.tip_height)
    msg = wire.UpdateBoundary(bob.address, 0, harness.hub.chain.tip_height, forged[0].header.hash())
    with pytest.raises(NotInChain):
        harness.hub.update_boundary_block(bob.sign(msg))


# ------------------------------------------------------------------
# deposits through insert_block

def test_deposit_credit_uses_balance_increase_formula():
    # 100,000 sat deposit at fee_avg 10 credits 98,520 and opens a send channel
    node = SimNode(seed=3)
    node.mine_blocks(2)
    sink = b"\x51" * 20
    fee_blocks = []
    for _ in range(3):
        node.pay(sink, 40_000, fee=2_260)
        fee_blocks.append(node.mine_block())
    host = Keys.generate(FAST.auth)
    hub = Hub(HubConfig(host.public, b"\x68" * 20, 1, node.params, FAST))
    headers = [b.header for b in node.blocks]
    hub.initialize(headers[0], 0, headers[1:], fee_blocks)
    assert hub.estimator.fee_avg == 10

    alice = Keys.generate(FAST.auth)
    addr = hub.add_user(alice.public, b"\x0a" * 20)
    manager = hub.add_deposit(alice.sign(wire.AddDeposit(alice.address, 0)))
    node.pay(manager, 100_000, fee=2_260)  # deposit block sample stays 10
    block = node.mine_block()
    msg = host.sign(wire.InsertBlock(block.serialize()), block.header.hash())
    assert hub.insert_block(msg)["credited"] == 1
    user = hub.users[addr]
    deposit = hub.owned[next(iter(hub.owned))]
    assert deposit.fare_precollected == 1_480
    assert user.balance == 98_520
    assert user.max_source_block == hub.chain.tip_height
    assert user.balance > 0
    assert not hub.pending_deposits


def test_deposit_credit_example_fee_avg_10():
    harness = World()
    # pin fee_avg at 10 with one sample in the empty window
    harness.hub.estimator.add(10)
    alice = harness.new_user()
    harness.deposit(alice, 100_000)
    assert harness.balance(alice) == 98_520
    assert harness.hub.conservation()["ok"]


def test_dust_deposit_credits_zero_but_stays_spendable():
    harness = World()
    harness.hub.estimator.add(10)
    alice = harness.new_user()
    harness.deposit(alice, 900)  # below the 1,480 sat fare
    assert harness.balance(alice) == 0
    deposit = next(iter(harness.hub.owned.values()))
    assert deposit.value == 900
    assert deposit.fare_precollected == 900
    assert harness.hub.conservation()["ok"]


def test_pending_deposit_expires():
    harness = World(seed=5, premine=2)
    hub, node = harness.hub, harness.node
    alice = harness.new_user()
    manager = hub.add_deposit(alice.sign(wire.AddDeposit(alice.address, 0)))
    reports = [harness.insert(node.mine_block()) for _ in range(DEPOSIT_EXPIRY_BLOCKS + 2)]
    assert sum(r["expired"] for r in reports) == 1
    assert manager not in hub.pending_deposits
    # a payment arriving after expiry is ignored
    node.pay(manager, 50_000)
    assert harness.insert(node.mine_block())["credited"] == 0
    assert harness.balance(alice) == 0


def test_insert_block_rejects_non_tip_and_bad_host_sig():
    harness = World()
    harness.node.mine_blocks(2)
    stale = harness.node.get_block(harness.node.tip_height - 1)
    tip = harness.node.get_block(harness.node.tip_height)

    bad_sig = harness.host.sign(wire.InsertBlock(tip.serialize()), tip.header.hash())
    bad_sig.host_signature = bytes(32)
    with pytest.raises(HostAuthFailure):
        harness.hub.insert_block(bad_sig)

    forged_signer = Keys.generate(FAST.auth)
    wrong_key = forged_signer.sign(wire.InsertBlock(tip.serialize()), tip.header.hash())
    with pytest.raises(HostAuthFailure):
        harness.hub.insert_block(wrong_key)

    with pytest.raises(NotOnTip):
        harness.insert(tip)  # skips the height in between
    harness.insert(stale)
    harness.insert(tip)


def _mined_paying(node, address, value, claimed=None):
    """The node's next block, mined but not kept, with a transaction that pays
    `value` to `address` from an input no chain holds: a block only a host
    would sign. The input claims `claimed`, by default `value`, so that the
    block's fee sample is 0."""
    from_nothing = Transaction([TxInput(bytes(32), 0, value if claimed is None else claimed)],
                               [TxOutput(value, address)])
    node.clock.advance(node.params.target_spacing)
    coinbase = coinbase_tx(node.tip_height + 1, BLOCK_SUBSIDY, bytes(20))
    return node._mine_header(node.chain.tip_hash, node.next_bits(), [coinbase, from_nothing])


def test_a_block_crediting_past_the_money_supply_is_refused_whole():
    harness = World()
    hub = harness.hub
    alice = harness.new_user()
    harness.deposit(alice, 50_000)
    manager = hub.add_deposit(alice.sign(wire.AddDeposit(alice.address, harness.nonce(alice))))
    room = MAX_MONEY - hub.conservation()["owned_value"]
    before = dump_hub(hub)
    # 2**64 - 1 would lift alice's balance past what a u64 holds
    for value in ((1 << 64) - 1, room + 1):
        with pytest.raises(InvalidBlock):
            harness.insert(_mined_paying(harness.node, manager, value))
    assert dump_hub(hub) == before
    assert harness.insert(_mined_paying(harness.node, manager, room))["credited"] == 1
    assert hub.conservation()["owned_value"] == MAX_MONEY
    harness.settle(alice, 1_000, 34 * hub.estimator.fee_avg)
    assert hub.conservation()["ok"]
    assert load_hub(dump_hub(hub)).query_ledger() == hub.query_ledger()


@pytest.mark.parametrize("claimed, keep, refusal", [
    (0, None, "fee out of bounds"),
    (MAX_MONEY + 1_001, None, "fee out of bounds"),
    ((1 << 64) - 1, None, "fee out of bounds"),
    (1_000, 0, "empty block"),
    (1_000, 1, "merkle-mismatch"),  # the coinbase alone, under the root of both transactions
], ids=["fee-below-0", "fee-just-over-max-money", "fee-near-2**64", "empty-body", "merkle-mismatch"])
def test_a_block_whose_fee_is_out_of_bounds_is_refused_whole(claimed, keep, refusal):
    # the block rule, which InsertBlock and init's fee window share: a body
    # that is not empty and matches its header's Merkle root, whose every
    # fee is in bounds. A transaction declares its own input values; one
    # that pays out more than it claims would put a negative sample in the
    # fee window, which the snapshot cannot pack, and no chain spends more
    # than MAX_MONEY in fees
    harness = World()
    hub = harness.hub
    before = dump_hub(hub)
    block = _mined_paying(harness.node, bytes(20), 1_000, claimed)
    block = Block(block.header, block.txs[:keep])
    with pytest.raises(InvalidBlock, match=refusal):
        harness.insert(block)
    assert dump_hub(hub) == before
    # init refuses the same block in its fee window
    fresh = Hub(HubConfig(harness.host.public, b"\x68" * 20, 1, harness.params, FAST))
    headers = [b.header for b in harness.node.blocks] + [block.header]
    with pytest.raises(InitFailure, match=f"height {len(headers) - 1}: {refusal}"):
        fresh.initialize(headers[0], 0, headers[1:], [block])
    assert fresh.chain is None and not fresh.estimator.window


def _next_block(node, bits=None, proof_of_work=True):
    """The node's next block, carrying only its coinbase, mined under `bits`
    (by default the ones it must carry) but not kept; without proof of work,
    its nonce is the first after that whose hash misses the target."""
    coinbase = coinbase_tx(node.tip_height + 1, BLOCK_SUBSIDY, bytes(20))
    block = node._mine_header(node.chain.tip_hash, bits or node.next_bits(), [coinbase])
    header = block.header
    while not proof_of_work and check_pow(header):
        header = BlockHeader(header.version, header.prev_hash, header.merkle_root,
                             header.timestamp, header.bits, header.nonce + 1)
    return Block(header, block.txs)


# each request a hub refuses, with its code and detail; alice's are signed
# and spend her nonce before the refusal. A second Terminate is answered,
# with nothing enqueued
_REFUSALS = {
    "payment-after-terminate": (True, lambda h, a, b: h.pay(a, b.address, 10, 5), "hub-terminated", ""),
    "empty-batch": (False, lambda h, a, b: h.pay_batch(a, []), "receiver-not-ready", "empty batch"),
    "unknown-payee": (False, lambda h, a, b: h.pay(a, b"\x01" * 20, 10, 5), "unknown-user", "01" * 20),
    "settle-amount-0": (False, lambda h, a, b: h.settle(a, 0, 34 * h.hub.estimator.fee_avg),
                        "fee-too-low", "amount must be positive"),
    "block-bad-bits": (False, lambda h, a, b: h.insert(_next_block(h.node, bits=0x207FFFFE)),
                       "invalid-block", "bad-bits"),
    "block-bad-pow": (False, lambda h, a, b: h.insert(_next_block(h.node, proof_of_work=False)),
                      "invalid-block", "bad-pow"),
    "second-terminate": (True, lambda h, a, b: h.terminate(), None, None),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_a_refused_request_leaves_the_ledger_as_it_was(name):
    terminated, request, code, detail = _REFUSALS[name]
    harness = World(seed=13)
    hub = harness.hub
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 50_000)
    harness.set_boundary(bob)
    if terminated:
        harness.terminate()

    def ledger():
        return {a: u.balance for a, u in hub.users.items()}, list(hub.queue), hub.conservation()

    before, nonce, data = ledger(), harness.nonce(alice), dump_hub(hub)
    assert before[2]["ok"]
    if code is None:
        assert request(harness, alice, bob) == 0
    else:
        with pytest.raises(RouteeError) as exc:
            request(harness, alice, bob)
        assert exc.value.code == code and detail in exc.value.detail
    assert ledger() == before
    if code in (None, "invalid-block"):
        assert dump_hub(hub) == data
    else:
        assert harness.nonce(alice) == nonce + 1


# ------------------------------------------------------------------
# payments (ready phase + transfer phase)

def two_phase_setup():
    """Alice holds balance 90 sourced at block 3; Bob's boundary starts at 1."""
    harness = World(seed=8, premine=2, min_routing_fee=2)
    alice, bob = harness.new_user(), harness.new_user()
    manager = harness.hub.add_deposit(alice.sign(wire.AddDeposit(alice.address, 0)))
    harness.node.pay(manager, 238)  # fee_avg 1: fare 148, balance 90
    harness.insert(harness.node.mine_block())  # height 3 holds the deposit
    harness.node.mine_blocks(1)
    harness.catch_up()  # height 4 in the chain
    harness.set_boundary(bob, 1)
    return harness, alice, bob


def test_ready_phase_gate_and_transfer():
    harness, alice, bob = two_phase_setup()
    hub = harness.hub
    assert harness.balance(alice) == 90
    assert hub.users[alice.address].max_source_block == 3
    assert hub.users[bob.address].boundary_block == 1

    # transfer refused while Bob trusts only up to block 1 < source 3
    with pytest.raises(ReceiverNotReady):
        harness.pay(alice, bob.address, 30, 2)

    harness.set_boundary(bob, 4)  # ready phase: boundary 1 -> 4
    rf_before = hub.rf_pending
    harness.pay(alice, bob.address, 30, 2)  # check 3 <= 4 passes
    assert harness.balance(alice) == 90 - 30 - 2
    assert harness.balance(bob) == 30
    assert hub.users[bob.address].max_source_block == 3
    assert hub.rf_pending == rf_before + 2
    assert hub.conservation()["ok"]


def test_payment_fee_below_minimum():
    harness = World()
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 100_000)
    harness.set_boundary(bob)
    with pytest.raises(FeeBelowMinimum):
        harness.pay(alice, bob.address, 10, harness.hub.config.min_routing_fee - 1)


def test_batch_is_atomic():
    harness = World()
    alice = harness.new_user()
    receivers = [harness.new_user() for _ in range(3)]
    harness.deposit(alice, 10_000)
    for r in receivers:
        harness.set_boundary(r)
    balance = harness.balance(alice)
    # last item overdraws: the whole batch must be rejected without effect
    items = [(receivers[0].address, 100, 2), (receivers[1].address, 100, 2),
             (receivers[2].address, balance, 2)]
    with pytest.raises(InsufficientBalance):
        harness.pay_batch(alice, items)
    assert harness.balance(alice) == balance
    assert all(harness.balance(r) == 0 for r in receivers)
    assert harness.hub.rf_pending == 0
    # and a fitting batch lands atomically
    harness.pay_batch(alice, [(receivers[0].address, 100, 2), (receivers[1].address, 50, 3)])
    assert harness.balance(receivers[0]) == 100
    assert harness.balance(receivers[1]) == 50
    assert harness.hub.rf_pending == 5


def test_gating_matches_bruteforce_oracle():
    rng = random.Random(31337)
    harness = World(seed=31337, min_routing_fee=5)
    users = [harness.new_user() for _ in range(4)]
    harness.hub.estimator.add(1)
    # give everyone a deposit so max_source values vary
    for keys in users[:2]:
        harness.deposit(keys, rng.randrange(5_000, 20_000))
    for keys in users[2:]:
        if rng.random() < 0.5:
            harness.set_boundary(keys, rng.randrange(1, harness.hub.chain.tip_height))

    checked = 0
    for _ in range(400):
        sender, receiver = rng.choice(users), rng.choice(users)
        amount = rng.randrange(0, 3_000)
        fee = rng.randrange(0, 12)
        s = harness.hub.users[sender.address]
        r = harness.hub.users[receiver.address]
        expect_ok = (
            fee >= 5
            and r.boundary_block is not None
            and (s.max_source_block is None or s.max_source_block <= r.boundary_block)
            and s.balance >= amount + fee
        )
        msg = wire.Payment(sender.address, s.nonce, [wire.PaymentItem(receiver.address, amount, fee)])
        try:
            harness.hub.multi_hop_payment(sender.sign(msg))
            accepted = True
        except (FeeBelowMinimum, ReceiverNotReady, InsufficientBalance):
            accepted = False
        assert accepted == expect_ok
        assert harness.hub.conservation()["ok"]
        checked += 1
    assert checked == 400


# ------------------------------------------------------------------
# settlement requests and planning

def settlement_hub(fee_avg=10):
    harness = World(seed=9)
    harness.hub.estimator.add(fee_avg)  # the window starts empty
    return harness


def test_settle_fee_boundary():
    harness = settlement_hub(fee_avg=10)
    alice = harness.new_user()
    harness.deposit(alice, 500_000)
    boundary_fee = 34 * harness.hub.estimator.fee_avg
    with pytest.raises(FeeTooLow):
        harness.settle(alice, 100, boundary_fee - 1)
    harness.settle(alice, 100, boundary_fee)  # exact boundary accepted
    assert len(harness.hub.queue) + (len(harness.hub.plan.selected) if harness.hub.plan else 0) == 1


def test_queue_sorted_by_fee_then_sequence():
    harness = settlement_hub(fee_avg=1)
    users = [harness.new_user() for _ in range(3)]
    for keys in users:
        harness.deposit(keys, 200_000)
    # avoid plan construction swallowing the queue: empty the owned set
    saved = dict(harness.hub.owned)
    harness.hub.owned.clear()
    harness.settle(users[0], 1_000, 100)
    harness.settle(users[1], 1_000, 50)
    harness.settle(users[2], 1_000, 70)
    assert [r.fee for r in harness.hub.queue] == [100, 70, 50]
    harness.hub.owned.update(saved)


def test_try_build_not_yet_on_insufficient_fee():
    # single deposit with fare 1,480 at fee_avg 10; a 680-fee request cannot
    # cover formula_size(1,2)*10 = 2,260, so the plan is deferred
    harness = settlement_hub(fee_avg=10)
    alice = harness.new_user()
    harness.deposit(alice, 1_000_000)
    deposit = next(iter(harness.hub.owned.values()))
    assert deposit.fare_precollected == 1_480
    harness.settle(alice, 5_000, 680)
    assert harness.hub.plan is None  # 1,480 + 680 = 2,160 < 2,260


def test_try_build_feasible_at_higher_fee():
    # same shape with an 800-fee request: 1,480 + 800 = 2,280 >= 2,260,
    # leaving a 20 sat reserve after the transaction fee
    harness = settlement_hub(fee_avg=10)
    alice = harness.new_user()
    harness.deposit(alice, 1_000_000)
    harness.settle(alice, 5_000, 800)
    plan = harness.hub.plan
    assert plan is not None
    assert len(plan.selected) == 1
    assert plan.tx_fee == 2_260
    harness.confirm_outstanding()
    assert harness.hub.fee_reserve == 20
    assert harness.hub.conservation()["ok"]


def test_rf_confirmed_fraction_formula():
    # rf_pending 1000, s_amount 500, b_total 2000 -> exactly 250 confirmed
    harness = settlement_hub(fee_avg=1)
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 3_000 + 148)  # fare 148 leaves balance 3,000
    harness.set_boundary(bob)
    msg = wire.Payment(alice.address, harness.nonce(alice), [wire.PaymentItem(bob.address, 0, 1_000)])
    harness.hub.multi_hop_payment(alice.sign(msg))
    assert harness.hub.rf_pending == 1_000
    # settle amount 400 + fee 100 -> s_amount 500;
    # b_total = alice 1,500 remaining + queued 500 = 2,000
    harness.settle(alice, 400, 100)
    plan = harness.hub.plan
    assert plan is not None
    assert plan.s_amount == 500
    assert plan.b_total == 2_000
    assert plan.rf_confirmed_on_confirm == 250
    assert harness.hub.rf_pending == 750
    harness.confirm_outstanding()
    assert harness.hub.rf_confirmed == 250
    assert harness.hub.conservation()["ok"]


def test_spend_all_inputs_equal_owned_set():
    harness = settlement_hub(fee_avg=1)
    users = [harness.new_user() for _ in range(3)]
    for keys in users:
        harness.deposit(keys, 50_000)
    owned_before = set(harness.hub.owned.keys())
    harness.settle(users[0], 1_000, 600)
    plan = harness.hub.plan
    assert plan is not None
    assert set(plan.input_outpoints) == owned_before
    assert plan.tx_inputs == len(owned_before)


def _counting_passes(kind):
    """`kind` of sequence, counting the passes made over it."""

    class Counted(kind):
        passes = 0

        def __iter__(self):
            self.passes += 1
            return super().__iter__()

    return Counted


CountedQueue, CountedWindow = _counting_passes(list), _counting_passes(deque)


def _settle_against_bruteforce(hub, rng, terminating, label):
    """Build a plan from the hub's queue and check it against every prefix
    summed afresh; confirm it if built. Returns "scan" when the planner
    passed over the queue, "exit" when its bound answered without one."""
    fee_avg = hub.estimator.fee_avg
    n_dep = len(hub.owned)
    fares = sum(d.fare_precollected for d in hub.owned.values())
    fees = [r.fee for r in hub.queue]
    queue_len = len(fees)

    def collected(n):
        return fares + sum(fees[:n]) + hub.fee_reserve

    feasible = [
        n for n in range(1, queue_len + 1)
        if collected(n) >= formula_size(n_dep, n + 1) * fee_avg
    ]
    shortfall = formula_size(n_dep, queue_len + 1) * fee_avg - collected(queue_len)
    if terminating:
        # from nothing to twice the shortfall: about half the trials cover it
        hub.terminating = True
        hub.host_balance = rng.randrange(0, 2 * max(shortfall, 0) + 2)
    host_balance = hub.host_balance
    hub.queue = queue = CountedQueue(hub.queue)
    plan = hub.try_build_settlement()
    # the planner scans once where a plan can be built, and at termination
    assert queue.passes == (1 if feasible or terminating else 0), label
    path = "scan" if queue.passes else "exit"
    if feasible:
        assert plan is not None, f"{label}: not-yet where oracle says {max(feasible)}"
        assert len(plan.selected) == max(feasible), label
        assert plan.host_subsidy == 0, label
    elif terminating and shortfall <= host_balance:
        assert plan is not None, f"{label}: a covered shortfall of {shortfall} left unsettled"
        assert len(plan.selected) == queue_len, label
        assert plan.host_subsidy == shortfall, label
    else:
        assert plan is None, f"{label}: built where oracle says infeasible"
        assert hub.host_balance == host_balance, label
        return "infeasible", path
    assert hub.host_balance == host_balance - plan.host_subsidy, label
    n = len(plan.selected)
    assert plan.tx_fee == formula_size(n_dep, n + 1) * fee_avg, label
    reserve = collected(n) + plan.host_subsidy - plan.tx_fee
    hub._confirm_plan(hub.chain.tip_height, plan.transaction.txid())
    assert hub.fee_reserve == reserve, label
    return ("feasible" if feasible else "covered"), path


def _enqueue_random(hub, rng, count, max_fee):
    for _ in range(count):
        hub._enqueue(rng.randbytes(20), rng.randbytes(20), rng.randrange(1, 2_000), rng.randrange(0, max_fee))


def test_greedy_matches_bruteforce_over_random_queues():
    # at termination a queue with no feasible prefix settles whole when the
    # host's confirmed fees cover the shortfall, and not at all otherwise.
    # Three kinds of queue: random ones; "negative-first" ones, where even
    # the first fee is below 34 * fee_avg while fares and reserve cover the
    # base; and "fee-move" ones, where fee_avg moves between two settles
    rng = random.Random(555)
    kinds = ("random", "negative-first", "fee-move")
    branches = {"feasible": 0, "covered": 0, "infeasible": 0}
    paths = {(kind, path): 0 for kind in kinds for path in ("exit", "scan")}
    for terminating in (False, True):
        for trial in range(180):
            kind = kinds[trial % 3]
            harness = settlement_hub(fee_avg=rng.randrange(1, 12))
            hub = harness.hub
            fee_avg = hub.estimator.fee_avg
            n_dep = rng.randrange(1, 5)
            for i in range(n_dep):
                outpoint = (rng.randbytes(32), 0)
                sk, pk = FAST.onchain.generate()
                addr = address_of(pk)
                hub.manager_keys[addr] = (sk, pk)
                hub._own(OwnedDeposit(
                    *outpoint, rng.randrange(200_000, 300_000),
                    rng.randrange(0, 148 * fee_avg + 1), i, addr,
                ))
            if kind == "negative-first":
                uncovered = formula_size(n_dep, 1) * fee_avg - hub.fares
                hub.fee_reserve = max(0, uncovered) + rng.randrange(0, 34 * fee_avg)
                _enqueue_random(hub, rng, rng.randrange(1, 5), 34 * fee_avg)
            else:
                hub.fee_reserve = rng.randrange(0, 300)
                # a fee averages a little more than the 34 * fee_avg its output
                # costs, so some prefixes pay for themselves and some do not
                _enqueue_random(hub, rng, rng.randrange(1, 13), 80 * fee_avg)
            label = f"trial {trial}, {kind}, terminating {terminating}"
            settles = [_settle_against_bruteforce(hub, rng, terminating, label)]
            if kind == "fee-move":
                # one sample beside the window's only one moves fee_avg to
                # anywhere from half to three times what it was
                moved = rng.choice([avg for avg in range((fee_avg + 1) // 2, 3 * fee_avg + 2) if avg != fee_avg])
                hub._add_fee_sample(2 * moved - fee_avg)
                assert hub.estimator.fee_avg == moved
                _enqueue_random(hub, rng, 1, 80 * moved)
                settles.append(_settle_against_bruteforce(hub, rng, terminating, label + ", moved"))
            for branch, path in settles:
                branches[branch] += 1
                paths[kind, path] += 1
    # each oracle branch, and the planner's bound and its scan in each kind
    # of queue, ran often enough to check something
    assert min(branches.values()) >= 5, branches
    assert min(paths.values()) >= 5, paths


def test_a_settle_passes_over_the_queue_only_to_build_a_plan():
    harness = settlement_hub(fee_avg=10)
    hub = harness.hub
    for _ in range(100):
        hub.estimator.add(10)
    alice = harness.new_user()
    harness.deposit(alice, 1_000_000)  # fare 1,480: a plan needs 440 beyond the outputs
    hub.queue = queue = CountedQueue()
    hub.estimator.window = window = CountedWindow(hub.estimator.window, maxlen=FEE_WINDOW_CAPACITY)
    for _ in range(5):
        harness.settle(alice, 1_000, 340)  # the minimum fee pays its output alone
    assert hub.plan is None and len(queue) == 5
    assert (queue.passes, window.passes) == (0, 0)
    harness.settle(alice, 1_000, 2_000)
    assert hub.plan is not None
    assert (queue.passes, window.passes) == (1, 0)
    assert hub.conservation()["ok"]


def test_fee_window_drops_its_oldest_sample_from_the_sum():
    harness = World(seed=14)
    hub = harness.hub
    rng = random.Random(14)
    samples = [10**6] + [rng.randrange(0, 50) for _ in range(FEE_WINDOW_CAPACITY)]
    for sample in samples:
        hub.estimator.add(sample)
        window = hub.estimator.window
        assert hub.estimator.fee_avg == max(1, sum(window) // len(window))
    assert list(hub.estimator.window) == samples[1:]  # the first has left
    assert hub.conservation()["ok"]
    restored = load_hub(dump_hub(hub)).estimator
    assert list(restored.window) == samples[1:]
    assert restored.fee_avg == max(1, sum(restored.window) // len(restored.window)) == hub.estimator.fee_avg


def _deposit_behind_the_hubs_back(hub, alice):
    # owned as a fare in full, so the ledger identity still balances
    hub.owned[(bytes(32), 0)] = OwnedDeposit(bytes(32), 0, 1_000, 1_000, 1, bytes(20))


def _balance_behind_the_hubs_back(hub, alice):
    # paid from the pending routing fees, so the ledger identity still balances
    hub.users[alice.address].balance += 5
    hub.rf_pending -= 5


@pytest.mark.parametrize("fault", [_deposit_behind_the_hubs_back, _balance_behind_the_hubs_back])
def test_conservation_cross_checks_the_running_totals(fault):
    harness = World(seed=15)
    hub = harness.hub
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 50_000)
    harness.set_boundary(bob)
    harness.pay(alice, bob.address, 100, 5)
    assert hub.conservation()["ok"]
    fault(hub, alice)
    parts = hub.conservation()
    assert parts["owned_value"] == parts["owed"]
    assert not parts["ok"]
    assert hub.query_ledger()["conservation_ok"] == 0


# ------------------------------------------------------------------
# settlement chaining

def test_sequential_plans_chain_through_leftover():
    harness = settlement_hub(fee_avg=1)
    alice = harness.new_user()
    harness.deposit(alice, 400_000)
    harness.settle(alice, 10_000, 1_000)
    plan1 = harness.signed_plan()
    assert plan1 is not None
    harness.confirm_outstanding()

    harness.settle(alice, 10_000, 1_000)
    plan2 = harness.hub.plan
    assert plan2 is not None
    assert (plan1.transaction.txid(), plan1.tx_outputs - 1) in plan2.input_outpoints


def test_withheld_broadcast_invalidates_next_plan_on_main_chain():
    harness = settlement_hub(fee_avg=1)
    alice = harness.new_user()
    harness.deposit(alice, 400_000)
    harness.settle(alice, 10_000, 1_000)
    plan1 = harness.signed_plan()
    assert plan1 is not None

    # host never broadcasts plan1; it forges a private confirmation instead
    forger = harness.node.clone_at(harness.node.tip_height)
    forger.submit_tx(plan1.transaction)
    harness.insert(forger.mine_block())
    assert harness.hub.plans_confirmed == 1

    harness.settle(alice, 10_000, 1_000)
    plan2 = harness.signed_plan()
    assert plan2 is not None
    from routee.errors import TxRejected

    with pytest.raises(TxRejected) as exc:
        harness.node.submit_tx(plan2.transaction)
    assert exc.value.code == "missing-utxo"


# ------------------------------------------------------------------
# termination

def test_terminate_settles_everyone_exactly():
    harness = settlement_hub(fee_avg=1)
    alice, bob, carol = (harness.new_user() for _ in range(3))
    harness.deposit(alice, 150_000)
    harness.deposit(bob, 90_000)
    harness.set_boundary(carol)
    harness.pay(alice, carol.address, 7_000, 999)
    harness.terminate()
    hub = harness.hub
    rounds = 0
    built = []
    while not hub.termination_complete and rounds < 12:
        outstanding = harness.signed_plan()
        if outstanding is not None:
            harness.node.submit_tx(outstanding.transaction)
        report = harness.insert(harness.node.mine_block())
        # a block that leaves a new plan outstanding says so
        assert report["plan_built"] == int(hub.plan is not None and hub.plan is not outstanding)
        built.append((report["confirmed_plan"], report["plan_built"]))
        rounds += 1
    # the block confirming the users' plan builds the host's payout
    assert (1, 1) in built
    assert hub.termination_complete
    assert hub.rf_pending == 0
    assert hub.rf_confirmed == hub.rf_collected_total == 999
    assert all(u.balance == 0 for u in hub.users.values())
    assert hub.conservation()["ok"]
    # everyone received coins at their settle address on the main chain
    for keys in (alice, bob, carol):
        assert harness.onchain_value(hub.users[keys.address].settle_address) > 0
    assert harness.hub.plans_confirmed >= 1


def test_terminal_host_balance_too_small_for_its_payout_is_forfeited():
    # at fee_avg 10 the host's own 1-in/2-out payout would cost 2,260, more
    # than the 500 it earned, so the 500 goes to the fee reserve instead
    harness = settlement_hub(fee_avg=10)
    hub = harness.hub
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 1_000_000)  # fare 1,480
    harness.set_boundary(bob)
    harness.pay(alice, bob.address, 10_000, 500)
    assert harness.terminate() == 2
    plan = hub.plan
    assert plan is not None and len(plan.selected) == 2
    # 1-in/3-out costs 2,600: fares 1,480, the two 340 minimums and 440 more from alice
    assert plan.tx_fee == 2_600
    assert sorted(r.fee for r in plan.selected) == [340, 780]
    assert plan.rf_confirmed_on_confirm == 500
    report = harness.confirm_outstanding()
    assert (report["confirmed_plan"], report["plan_built"]) == (1, 0)
    assert hub.rf_confirmed == 500
    assert hub.host_balance == 0
    assert hub.fee_reserve == 500
    assert not hub.queue and hub.plan is None
    assert hub.termination_complete
    assert hub.conservation()["ok"]


def test_terminal_plan_takes_its_shortfall_from_the_host():
    # routing fees sit in host_balance while the fee reserve is empty, so no
    # prefix of the terminal queue pays its transaction: the host covers it
    harness = World(seed=5, min_routing_fee=2)
    hub = harness.hub
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 400_000)
    harness.insert(harness.node.mine_block())
    harness.set_boundary(bob)
    for _ in range(20):
        harness.pay(alice, bob.address, 1, 2_000)
        assert hub.conservation()["ok"]
    harness.settle(alice, harness.balance(alice) - 2 - 78, 78)
    harness.confirm_outstanding()
    assert hub.fee_reserve == 0 and hub.conservation()["ok"]

    assert harness.terminate() == 2
    assert hub.plan.host_subsidy == 240
    assert hub.conservation()["ok"]
    payout_fees = []
    rounds = 0
    while not hub.termination_complete and rounds < 8:
        plan = harness.signed_plan()
        if plan is not None:
            payout_fees += [r.fee for r in plan.selected if r.is_host]
            harness.node.submit_tx(plan.transaction)
        harness.insert(harness.node.mine_block())
        assert hub.conservation()["ok"]
        rounds += 1
    assert rounds == 2 and hub.termination_complete
    assert len(payout_fees) == 1
    assert harness.onchain_value(harness.host_settle) == hub.rf_confirmed - 240 - payout_fees[0]


def test_terminate_empty_hub_is_noop():
    harness = World()
    harness.terminate()
    assert harness.hub.termination_complete
    assert harness.hub.terminating


def test_terminate_requires_fresh_tip_signature():
    harness = World()
    stale_hash = harness.hub.chain.hash_at(0)
    msg = harness.host.sign(wire.Terminate(stale_hash))
    with pytest.raises(HostAuthFailure):
        harness.hub.terminate(msg)


def test_operations_blocked_after_terminate():
    harness = World()
    from routee.errors import HubTerminated

    alice = harness.new_user()
    harness.deposit(alice, 50_000)
    harness.terminate()
    with pytest.raises(HubTerminated):
        harness.hub.add_user(Keys.generate(FAST.auth).public, b"\x01" * 20)
    with pytest.raises(HubTerminated):
        harness.hub.add_deposit(alice.sign(wire.AddDeposit(alice.address, harness.nonce(alice))))


# ------------------------------------------------------------------
# per-user monotonicity

def test_user_counters_never_decrease():
    harness = World()
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 80_000)
    traces = {"nonce": [], "boundary": [], "source": []}

    def snap():
        s = harness.hub.users[bob.address]
        traces["nonce"].append(s.nonce)
        traces["boundary"].append(s.boundary_block or 0)
        traces["source"].append(s.max_source_block or 0)

    snap()
    harness.set_boundary(bob, 2)
    snap()
    harness.set_boundary(bob)
    snap()
    harness.pay(alice, bob.address, 500, 2)
    snap()
    harness.node.mine_blocks(1)
    harness.catch_up()
    harness.set_boundary(bob)
    snap()
    for series in traces.values():
        assert all(b >= a for a, b in zip(series, series[1:]))


def test_apply_request_refuses_front_end_requests():
    harness = World()
    # every kind `wire` declares is answered in exactly one place: snapshots
    # by the front end, every other kind by the hub's table
    samples = every_request_kind()
    assert {type(req) for req in samples} == {layout.cls for layout in wire._LAYOUTS.values()}
    refused = set()
    for req in samples:
        try:
            harness.hub.apply_request(req)
        except UnknownType:
            refused.add(type(req))
        except RouteeError:
            pass  # answered: a sample's signature or block does not hold here
    assert refused == {wire.Snapshot}
    conn = LocalConnection(LocalHubEndpoint(harness.hub), rng=DeterministicRng(1))
    for req in samples:
        try:
            conn.request(req)
        except wire.RemoteError as exc:
            assert exc.code != UnknownType.code, type(req).__name__
