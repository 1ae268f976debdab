import random

import pytest

from routee import wire
from routee.client import (
    Keys,
    build_add_deposit,
    build_insert_block,
    build_payment,
    build_settle,
    build_terminate,
    build_update_boundary,
)
from routee.crypto import CryptoSuite, address_of
from routee.errors import (
    AlreadyRegistered,
    AuthFailure,
    FeeBelowMinimum,
    FeeTooLow,
    HostAuthFailure,
    InitFailure,
    InsufficientBalance,
    MonotonicityViolation,
    NotInChain,
    NotOnTip,
    ReceiverNotReady,
    StaleRequest,
    UnknownType,
)
from routee.hub import Hub, HubConfig, OwnedDeposit
from routee.simchain import SimNode
from routee.transactions import formula_size

from conftest import HubHarness

FAST = CryptoSuite.fast_test()


def make_hub(node, host, min_fee=2, **kwargs):
    config = HubConfig(host.public, b"\x68" * 20, min_fee, node.params, FAST, **kwargs)
    hub = Hub(config)
    headers = [b.header for b in node.blocks]
    hub.initialize(headers[0], 0, headers[1:], node.blocks)
    return hub


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


def test_init_runs_exactly_once():
    harness = HubHarness()
    with pytest.raises(Exception):
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

def test_add_user_fresh_duplicate_distinct(harness):
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


def test_add_deposit_grows_pending_and_blocks_replay(harness):
    alice = harness.new_user()
    msg = build_add_deposit(harness.suite.auth, alice, 0)
    m1 = harness.hub.add_deposit(msg)
    assert len(m1) == 20
    assert len(harness.hub.pending_deposits) == 1
    with pytest.raises(StaleRequest):
        harness.hub.add_deposit(msg)  # identical replayed message
    m2 = harness.hub.add_deposit(build_add_deposit(harness.suite.auth, alice, 1))
    assert m1 != m2
    assert len(harness.hub.pending_deposits) == 2


def test_bad_signature_does_not_consume_nonce(harness):
    alice = harness.new_user()
    msg = build_add_deposit(harness.suite.auth, alice, 0)
    msg.signature = bytes(32)
    with pytest.raises(AuthFailure):
        harness.hub.add_deposit(msg)
    assert harness.nonce(alice) == 0


def test_authentic_rejection_consumes_nonce(harness):
    alice = harness.new_user()
    bob = harness.new_user()
    harness.set_boundary(bob)
    # no balance: payment rejected, but the nonce is spent
    msg = build_payment(
        harness.suite.auth, alice, 0, [wire.PaymentItem(bob.address, 10, 5)]
    )
    with pytest.raises(InsufficientBalance):
        harness.hub.multi_hop_payment(msg)
    assert harness.nonce(alice) == 1
    with pytest.raises(StaleRequest):
        harness.hub.multi_hop_payment(msg)  # replaying the rejection is dead


# ------------------------------------------------------------------
# boundary blocks

def test_boundary_opens_receive_channel_and_is_monotonic(harness):
    bob = harness.new_user()
    state = harness.hub.users[bob.address]
    assert state.boundary_block is None
    harness.set_boundary(bob, 4)
    assert state.boundary_block is not None
    assert state.boundary_block == 4
    with pytest.raises(MonotonicityViolation):
        harness.set_boundary(bob, 3)


def test_boundary_rejects_forged_hash(harness):
    bob = harness.new_user()
    from routee.simchain import forge_chain

    forged = forge_chain(harness.node, harness.node.tip_height)
    msg = build_update_boundary(
        harness.suite.auth, bob, 0, harness.hub.chain.tip_height, forged[0].header.hash()
    )
    with pytest.raises(NotInChain):
        harness.hub.update_boundary_block(msg)


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
    manager = hub.add_deposit(build_add_deposit(FAST.auth, alice, 0))
    node.pay(manager, 100_000, fee=2_260)  # deposit block sample stays 10
    block = node.mine_block()
    msg = build_insert_block(FAST.auth, host, block.serialize(), block.header.hash())
    report = hub.insert_block(msg)
    assert report.credited == [(addr, 98_520)]
    user = hub.users[addr]
    deposit = hub.owned[next(iter(hub.owned))]
    assert deposit.fare_precollected == 1_480
    assert user.balance == 98_520
    assert user.max_source_block == hub.chain.tip_height
    assert user.balance > 0
    assert not hub.pending_deposits


def test_deposit_credit_example_fee_avg_10(harness):
    # pin fee_avg at 10 by injecting the estimator window directly
    harness.hub.estimator.window.clear()
    harness.hub.estimator.window.append(10)
    alice = harness.new_user()
    harness.deposit(alice, 100_000)
    assert harness.balance(alice) == 98_520
    assert harness.hub.conservation()["ok"]


def test_dust_deposit_credits_zero_but_stays_spendable(harness):
    harness.hub.estimator.window.clear()
    harness.hub.estimator.window.append(10)
    alice = harness.new_user()
    harness.deposit(alice, 900)  # below the 1,480 sat fare
    assert harness.balance(alice) == 0
    deposit = next(iter(harness.hub.owned.values()))
    assert deposit.value == 900
    assert deposit.fare_precollected == 900
    assert harness.hub.conservation()["ok"]


def test_pending_deposit_expires():
    node = SimNode(seed=5)
    node.mine_blocks(2)
    host = Keys.generate(FAST.auth)
    hub = make_hub(node, host, deposit_expiry_blocks=2)
    alice = Keys.generate(FAST.auth)
    hub.add_user(alice.public, b"\x0a" * 20)
    manager = hub.add_deposit(build_add_deposit(FAST.auth, alice, 0))
    reports = []
    for _ in range(4):
        block = node.mine_block()
        msg = build_insert_block(FAST.auth, host, block.serialize(), block.header.hash())
        reports.append(hub.insert_block(msg))
    assert sum(r.expired for r in reports) == 1
    assert manager not in hub.pending_deposits
    # a payment arriving after expiry is ignored
    node.pay(manager, 50_000)
    block = node.mine_block()
    msg = build_insert_block(FAST.auth, host, block.serialize(), block.header.hash())
    report = hub.insert_block(msg)
    assert not report.credited
    assert hub.users[alice.address].balance == 0


def test_insert_block_rejects_non_tip_and_bad_host_sig(harness):
    harness.node.mine_blocks(2)
    stale = harness.node.get_block(harness.node.tip_height - 1)
    tip = harness.node.get_block(harness.node.tip_height)

    bad_sig = build_insert_block(FAST.auth, harness.host, tip.serialize(), tip.header.hash())
    bad_sig.host_signature = bytes(32)
    with pytest.raises(HostAuthFailure):
        harness.hub.insert_block(bad_sig)

    forged_signer = Keys.generate(FAST.auth)
    wrong_key = build_insert_block(FAST.auth, forged_signer, tip.serialize(), tip.header.hash())
    with pytest.raises(HostAuthFailure):
        harness.hub.insert_block(wrong_key)

    with pytest.raises(NotOnTip):
        harness.insert(tip)  # skips the height in between
    harness.insert(stale)
    harness.insert(tip)


# ------------------------------------------------------------------
# payments (ready phase + transfer phase)

def two_phase_setup():
    """Alice holds balance 90 sourced at block 3; Bob's boundary starts at 1."""
    harness = HubHarness(seed=8, premine=2, min_routing_fee=2)
    alice, bob = harness.new_user(), harness.new_user()
    manager = harness.hub.add_deposit(build_add_deposit(FAST.auth, alice, 0))
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


def test_payment_fee_below_minimum(harness):
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 100_000)
    harness.set_boundary(bob)
    with pytest.raises(FeeBelowMinimum):
        harness.pay(alice, bob.address, 10, harness.hub.config.min_routing_fee - 1)


def test_batch_is_atomic(harness):
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
    harness = HubHarness(seed=31337, min_routing_fee=5)
    users = [harness.new_user() for _ in range(4)]
    harness.hub.estimator.window.append(1)
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
        msg = build_payment(
            FAST.auth, sender, s.nonce, [wire.PaymentItem(receiver.address, amount, fee)]
        )
        try:
            harness.hub.multi_hop_payment(msg)
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
    harness = HubHarness(seed=9)
    harness.hub.estimator.window.clear()
    harness.hub.estimator.window.append(fee_avg)
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
    assert plan.collected - plan.tx_fee == 20
    harness.confirm_outstanding()
    assert harness.hub.fee_reserve == 20
    assert harness.hub.conservation()["ok"]


def test_rf_confirmed_fraction_formula():
    # rf_pending 1000, s_amount 500, b_total 2000 -> exactly 250 confirmed
    harness = settlement_hub(fee_avg=1)
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 3_000 + 148)  # fare 148 leaves balance 3,000
    harness.set_boundary(bob)
    msg = build_payment(FAST.auth, alice, harness.nonce(alice),
                        [wire.PaymentItem(bob.address, 0, 1_000)])
    harness.hub.multi_hop_payment(msg)
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


def test_greedy_matches_bruteforce_over_random_queues():
    rng = random.Random(555)
    for trial in range(60):
        harness = settlement_hub(fee_avg=rng.randrange(1, 12))
        hub = harness.hub
        fee_avg = hub.estimator.fee_avg
        n_dep = rng.randrange(1, 5)
        for i in range(n_dep):
            outpoint = (rng.randbytes(32), 0)
            sk, pk = FAST.onchain.generate()
            addr = address_of(pk)
            hub.manager_keys[addr] = (sk, pk)
            hub.owned[outpoint] = OwnedDeposit(
                *outpoint, rng.randrange(200_000, 300_000),
                rng.randrange(0, 148 * fee_avg + 1), i, addr,
            )
        hub.fee_reserve = rng.randrange(0, 300)
        queue_len = rng.randrange(1, 13)
        for _ in range(queue_len):
            hub._enqueue(rng.randbytes(20), rng.randbytes(20),
                         rng.randrange(1, 2_000), rng.randrange(0, 40 * fee_avg))
        fares = sum(d.fare_precollected for d in hub.owned.values())
        fees = [r.fee for r in hub.queue]
        feasible = [
            n for n in range(1, queue_len + 1)
            if fares + sum(fees[:n]) + hub.fee_reserve >= formula_size(n_dep, n + 1) * fee_avg
        ]
        plan = hub.try_build_settlement()
        if not feasible:
            assert plan is None, f"trial {trial}: built where oracle says infeasible"
        else:
            assert plan is not None, f"trial {trial}: not-yet where oracle says {max(feasible)}"
            assert len(plan.selected) == max(feasible), f"trial {trial}"


# ------------------------------------------------------------------
# settlement chaining

def test_sequential_plans_chain_through_leftover():
    harness = settlement_hub(fee_avg=1)
    alice = harness.new_user()
    harness.deposit(alice, 400_000)
    harness.settle(alice, 10_000, 1_000)
    plan1 = harness.hub.plan
    assert plan1 is not None
    harness.confirm_outstanding()

    harness.settle(alice, 10_000, 1_000)
    plan2 = harness.hub.plan
    assert plan2 is not None
    assert plan1.leftover_outpoint in plan2.input_outpoints


def test_withheld_broadcast_invalidates_next_plan_on_main_chain():
    harness = settlement_hub(fee_avg=1)
    alice = harness.new_user()
    harness.deposit(alice, 400_000)
    harness.settle(alice, 10_000, 1_000)
    plan1 = harness.hub.plan
    assert plan1 is not None

    # host never broadcasts plan1; it forges a private confirmation instead
    forger = harness.node.clone_at(harness.node.tip_height)
    forger.submit_tx(plan1.transaction)
    harness.insert(forger.mine_block())
    assert harness.hub.plans_confirmed == 1

    harness.settle(alice, 10_000, 1_000)
    plan2 = harness.hub.plan
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
    rounds = 0
    while not harness.hub.termination_complete and rounds < 12:
        if harness.hub.plan is not None:
            harness.node.submit_tx(harness.hub.plan.transaction)
        harness.insert(harness.node.mine_block())
        rounds += 1
    hub = harness.hub
    assert hub.termination_complete
    assert hub.rf_pending == 0
    assert hub.rf_confirmed == hub.rf_collected_total == 999
    assert all(u.balance == 0 for u in hub.users.values())
    assert hub.conservation()["ok"]
    # everyone received coins at their settle address on the main chain
    for keys in (alice, bob, carol):
        settle_addr = hub.users[keys.address].settle_address
        got = sum(o.value for o in harness.node.utxo.values()
                  if o.lock_address == settle_addr)
        assert got > 0
    assert harness.hub.plans_confirmed >= 1


def test_terminate_empty_hub_is_noop(harness):
    harness.terminate()
    assert harness.hub.termination_complete
    assert harness.hub.terminating


def test_terminate_requires_fresh_tip_signature(harness):
    stale_hash = harness.hub.chain.hash_at(0)
    msg = build_terminate(FAST.auth, harness.host, stale_hash)
    with pytest.raises(HostAuthFailure):
        harness.hub.terminate(msg)


def test_operations_blocked_after_terminate(harness):
    from routee.errors import HubTerminated

    alice = harness.new_user()
    harness.deposit(alice, 50_000)
    harness.terminate()
    with pytest.raises(HubTerminated):
        harness.hub.add_user(Keys.generate(FAST.auth).public, b"\x01" * 20)
    with pytest.raises(HubTerminated):
        harness.hub.add_deposit(build_add_deposit(FAST.auth, alice, harness.nonce(alice)))


# ------------------------------------------------------------------
# per-user monotonicity

def test_user_counters_never_decrease(harness):
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


def test_apply_request_refuses_front_end_requests(harness):
    # snapshots and init belong to the front end; the hub has no branch for them
    for req in (wire.Snapshot(), wire.InitRun()):
        with pytest.raises(UnknownType):
            harness.hub.apply_request(req)
