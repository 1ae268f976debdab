"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with `pytest tests/test_acceptance.py -s`). Tolerances are pinned in
the assertions; every expected value is either exact arithmetic or checked
against an independent oracle computed in this file."""

import json
import random
import time

import pytest

from routee import cli, wire
from routee.client import (
    Keys,
    LocalConnection,
    LocalHubEndpoint,
)
from routee.crypto import DeterministicRng, SCHEMES, address_of
from routee.errors import BlockRejected, RouteeError
from routee.headers import (
    BlockHeader,
    ChainParams,
    HeaderChain,
    bits_to_target,
    check_pow,
    expected_target,
    target_to_bits,
)
from routee.hub import Hub, HubConfig, OwnedDeposit
from routee.relay import Relay, RelaySchedule
from routee.scenarios import World, scenario_fake_deposit
from routee.simchain import SimNode
from routee.transactions import (
    Transaction,
    TxInput,
    TxOutput,
    formula_size,
    make_unlock,
)

from conftest import FAST, run_conservation_mix


def report(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ----------------------------------------------------------------------
# 1. fee-formula exactness

def test_criterion_1_fee_formula_exactness():
    start = time.perf_counter()
    ok_size = formula_size(2000, 2001) == 364_044

    harness = World(seed=101)
    harness.hub.estimator.add(10)  # the window starts empty
    alice = harness.new_user()
    harness.deposit(alice, 100_000)
    ok_increase = harness.balance(alice) == 98_520

    # rf_confirmed = floor(1000 * 500 / 2000) = 250, via the real build path
    h2 = World(seed=102)
    alice2, bob2 = h2.new_user(), h2.new_user()
    h2.deposit(alice2, 3_148)
    h2.set_boundary(bob2)
    h2.pay(alice2, bob2.address, 0, 1_000)
    h2.settle(alice2, 400, 100)
    plan = h2.hub.plan
    ok_rf = (
        plan is not None
        and (plan.rf_confirmed_on_confirm, plan.s_amount, plan.b_total) == (250, 500, 2_000)
    )
    elapsed = time.perf_counter() - start
    report(
        "1 fee-formula exactness",
        ok_size and ok_increase and ok_rf and elapsed < 1.0,
        f"size={formula_size(2000, 2001)}, credit={harness.balance(alice)}, "
        f"rf={plan.rf_confirmed_on_confirm if plan else None}, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 2. two-phase payment walkthrough over the CLI

def _cli_json(capsys, argv):
    code = cli.main(["--json"] + argv)
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, (lines[-1] if lines else {})


def test_criterion_2_payment_walkthrough_cli(tmp_path, capsys):
    from routee.daemon import DaemonConfig, HubDaemon
    from routee.simchain_server import SimchainClient, SimchainServer

    start = time.perf_counter()
    node = SimNode(ChainParams.regtest(), seed=204)
    node.mine_blocks(2)
    sim_server = SimchainServer(node)
    sim_server.start()
    host_key = Keys.generate(SCHEMES["fast"])
    host_path = tmp_path / "host.key"
    host_key.save(str(host_path))
    daemon = HubDaemon(DaemonConfig(overrides={
        "simchain_port": sim_server.port,
        "min_routing_fee": 2,
        "host_pubkey_hex": host_key.public.hex(),
    }))
    daemon.start()
    sim = SimchainClient("127.0.0.1", sim_server.port)
    try:
        port = str(daemon.port)
        sim_addr = f"127.0.0.1:{sim_server.port}"
        alice_path, bob_path = str(tmp_path / "a.key"), str(tmp_path / "b.key")

        _, alice_out = _cli_json(capsys, ["keygen", "--out", alice_path])
        _, bob_out = _cli_json(capsys, ["keygen", "--out", bob_path])
        _cli_json(capsys, ["add-user", "--port", port, "--key", alice_path,
                           "--settle-address", "aa" * 20])
        _cli_json(capsys, ["add-user", "--port", port, "--key", bob_path,
                           "--settle-address", "bb" * 20])
        _, dep = _cli_json(capsys, ["add-deposit", "--port", port, "--key", alice_path])
        sim.pay(bytes.fromhex(dep["manager_address"]), 238)  # fare 148 leaves 90
        sim.mine(1)  # block 3 holds the deposit
        _cli_json(capsys, ["insert-block", "--port", port, "--host-key", str(host_path),
                           "--simchain", sim_addr])
        # ready phase: Bob first trusts only up to block 1
        code, bound = _cli_json(capsys, ["set-boundary", "--port", port, "--key", bob_path,
                                         "--peer", sim_addr, "--k", "2"])
        boundary_first = bound.get("boundary_block")
        sim.mine(2)  # chain grows to 5
        _cli_json(capsys, ["insert-block", "--port", port, "--host-key", str(host_path),
                           "--simchain", sim_addr])
        code, bound = _cli_json(capsys, ["set-boundary", "--port", port, "--key", bob_path,
                                         "--peer", sim_addr, "--k", "1"])
        boundary_second = bound.get("boundary_block")

        code, pay = _cli_json(capsys, ["pay", "--port", port, "--key", alice_path,
                                       "--to", bob_out["address"], "--amount", "30",
                                       "--fee", "2"])
        _, alice_state = _cli_json(capsys, ["balance", "--port", port, "--key", alice_path])
        _, bob_state = _cli_json(capsys, ["balance", "--port", port, "--key", bob_path])
        _, ledger = _cli_json(capsys, ["ledger", "--port", port])
        elapsed = time.perf_counter() - start

        ok = (
            boundary_first == 1
            and boundary_second == 4
            and pay.get("accepted") == 1
            and alice_state["balance"] == 90 - 30 - 2
            and alice_state["max_source_block"] == 3
            and bob_state["balance"] == 30
            and bob_state["max_source_block"] == 3
            and bob_state["boundary_block"] == 4
            and ledger["rf_pending"] == 2
            and elapsed < 5.0
        )
        report(
            "2 payment walkthrough (CLI)",
            ok,
            f"boundary {boundary_first}->{boundary_second}, alice={alice_state['balance']}, "
            f"bob={bob_state['balance']}, rf={ledger['rf_pending']}, {elapsed:.2f}s",
        )
    finally:
        sim.close()
        daemon.stop()
        sim_server.stop()


# ----------------------------------------------------------------------
# 3. fake-deposit defense

def test_criterion_3_fake_deposit_defense():
    start = time.perf_counter()
    defended = scenario_fake_deposit(seed=7, builder="spend-all")
    vulnerable = scenario_fake_deposit(seed=7, builder="naive")
    defended2 = scenario_fake_deposit(seed=7, builder="spend-all")
    elapsed = time.perf_counter() - start
    ok = (
        defended.verdict == "defended"
        and defended.details["honest_deposits_intact"]
        and vulnerable.verdict == "vulnerable"
        and vulnerable.deltas["stolen"] == vulnerable.deltas["honest_deposits_spent"] > 0
        and defended.to_dict() == defended2.to_dict()  # deterministic
        and elapsed < 30.0
    )
    report(
        "3 spend-all defense",
        ok,
        f"spend-all={defended.verdict}, naive={vulnerable.verdict}, "
        f"stolen={vulnerable.deltas.get('stolen')}, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 4. conservation and routing-fee properties

def test_criterion_4_conservation_and_rf():
    start = time.perf_counter()
    harness = run_conservation_mix(seed=4040, n_ops=10_000, n_users=50)
    hub = harness.hub
    elapsed = time.perf_counter() - start
    ok = (
        hub.termination_complete
        and hub.rf_pending == 0
        and all(u.balance == 0 for u in hub.users.values())
        and hub.rf_confirmed == hub.rf_collected_total
        and hub.conservation()["ok"]
        and elapsed < 120.0
    )
    report(
        "4 conservation & RF exactness",
        ok,
        f"collected={hub.rf_collected_total}, confirmed={hub.rf_confirmed}, "
        f"plans={hub.plans_confirmed}, {elapsed:.1f}s for 10k ops / 50 users",
    )


# ----------------------------------------------------------------------
# 5. greedy vs brute force

def test_criterion_5_greedy_matches_bruteforce():
    start = time.perf_counter()
    rng = random.Random(50_500)
    host = Keys.generate(FAST.auth, DeterministicRng(1))
    mismatches = 0
    for trial in range(500):
        hub = Hub(HubConfig(host.public, b"\x68" * 20, 1, ChainParams.regtest(), FAST))
        fee_avg = rng.randrange(1, 12)
        hub.estimator.add(fee_avg)
        n_dep = rng.randrange(1, 6)
        for i in range(n_dep):
            outpoint = (rng.randbytes(32), 0)
            sk, pk = FAST.onchain.generate(DeterministicRng(trial * 100 + i))
            addr = address_of(pk)
            hub.manager_keys[addr] = (sk, pk)
            hub._own(OwnedDeposit(
                *outpoint, rng.randrange(300_000, 400_000),
                rng.randrange(0, 148 * fee_avg + 1), i, addr,
            ))
        hub.fee_reserve = rng.randrange(0, 400)
        for _ in range(rng.randrange(1, 13)):
            hub._enqueue(rng.randbytes(20), rng.randbytes(20),
                         rng.randrange(1, 2_000), rng.randrange(0, 45 * fee_avg))
        fares = sum(d.fare_precollected for d in hub.owned.values())
        fees = [r.fee for r in hub.queue]
        feasible = [
            n for n in range(1, len(fees) + 1)
            if fares + sum(fees[:n]) + hub.fee_reserve >= formula_size(n_dep, n + 1) * fee_avg
        ]
        plan = hub.try_build_settlement()
        want = max(feasible) if feasible else 0
        got = len(plan.selected) if plan else 0
        if want != got:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "5 greedy vs brute force",
        mismatches == 0 and elapsed < 60.0,
        f"500 queues, {mismatches} mismatches, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 6. retarget oracle

def test_criterion_6_retarget_oracle():
    start = time.perf_counter()
    rng = random.Random(606)
    failures = 0
    for _ in range(200):
        interval = rng.choice([4, 8, 16, 32])
        spacing = rng.choice([60, 300, 600])
        params = ChainParams(interval, spacing, 0x1D00FFFF)
        bits = target_to_bits(rng.randrange(1 << 28, params.pow_limit))
        base = rng.randrange(1, 2**31)
        offsets = sorted(rng.randrange(0, interval * spacing * 8) for _ in range(interval))
        timestamps = [base + o for o in offsets]

        chain = HeaderChain.__new__(HeaderChain)
        chain.params = params
        chain.headers = []
        chain._hashes = []
        chain.cumulative_work = 0
        prev = b"\x00" * 32
        for ts in timestamps:
            header = BlockHeader(1, prev, b"\x00" * 32, ts, bits, 0)
            chain.headers.append(header)
            chain._hashes.append(header.hash())
            prev = chain._hashes[-1]

        got = expected_target(chain, interval).bits
        # independent recomputation with arbitrary-precision integers
        span = interval * spacing
        actual = max(span // 4, min(timestamps[-1] - timestamps[0], span * 4))
        want = target_to_bits(min((bits_to_target(bits) * actual) // span, params.pow_limit))
        if got != want:
            failures += 1
    elapsed = time.perf_counter() - start
    report("6 retarget oracle", failures == 0 and elapsed < 10.0,
           f"200 windows, {failures} mismatches, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 7. throughput

def _encode_payment_frames(harness, endpoint, sender, receiver, count, batch_size):
    conn = LocalConnection(endpoint, rng=DeterministicRng(77))
    frames = []
    nonce = harness.nonce(sender)
    for _ in range(count):
        batch = [wire.PaymentItem(receiver.address, 1, 2) for _ in range(batch_size)]
        msg = sender.sign(wire.Payment(sender.address, nonce, batch))
        frames.append(wire.pack_frame(
            wire.FRAME_ENVELOPE, conn.session.seal(wire.encode_request(msg))
        ))
        nonce += 1
    return frames


def test_criterion_7_payment_throughput():
    harness = World(seed=700)
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 2_000_000_000)
    harness.set_boundary(bob)
    endpoint = LocalHubEndpoint(harness.hub, session_rng=DeterministicRng(7))

    def run(frames):
        handle = endpoint.handle_frame
        start = time.perf_counter()
        for frame in frames:
            handle(frame)
        return time.perf_counter() - start

    n1, n30 = 4_000, 400
    frames1 = _encode_payment_frames(harness, endpoint, alice, bob, n1, 1)
    t1 = run(frames1)
    tput1 = n1 / t1
    frames30 = _encode_payment_frames(harness, endpoint, alice, bob, n30, 30)
    t30 = run(frames30)
    tput30 = (n30 * 30) / t30
    ratio = tput30 / tput1
    ok = tput1 >= 5_000 and ratio >= 5.0
    report(
        "7 payment throughput",
        ok,
        f"batch-1 {tput1:,.0f}/s, batch-30 {tput30:,.0f}/s, ratio {ratio:.1f}x",
    )


# ----------------------------------------------------------------------
# 8. header verification speed + corruption fuzz

def _mine_header_chain(params, count, seed):
    rng = random.Random(seed)
    target = bits_to_target(params.pow_limit_bits)
    headers = []
    prev = b"\x00" * 32
    ts = 1_600_000_000
    for _ in range(count):
        merkle = rng.randbytes(32)
        nonce = 0
        while True:
            header = BlockHeader(1, prev, merkle, ts, params.pow_limit_bits, nonce)
            if int.from_bytes(header.hash(), "little") <= target:
                break
            nonce += 1
        headers.append(header)
        prev = header.hash()
        ts += params.target_spacing
    return headers


def test_criterion_8_header_verification():
    # timing: 2,016 headers at regtest difficulty in under 2 seconds
    easy = ChainParams(2016, 600, 0x207FFFFF)
    headers = _mine_header_chain(easy, 2_016, seed=808)
    start = time.perf_counter()
    chain = HeaderChain(easy, [headers[0]])
    for header in headers[1:]:
        chain.append(header)
    verify_time = time.perf_counter() - start
    assert chain.tip_height == 2_015

    # fuzz: single-bit corruptions over a 16-bit-difficulty chain
    fuzz_params = ChainParams(100_000, 600, 0x1F00FFFF)
    fuzz_headers = _mine_header_chain(fuzz_params, 48, seed=809)
    raws = [h.serialize() for h in fuzz_headers]
    rng = random.Random(810)
    invalid_accepted = 0
    lucky_valid = 0
    for _ in range(10_000):
        idx = rng.randrange(1, len(raws))  # never the trusted start header
        bit = rng.randrange(80 * 8)
        mutated = bytearray(raws[idx])
        mutated[bit // 8] ^= 1 << (bit % 8)
        candidate = BlockHeader.deserialize(bytes(mutated))
        chain = HeaderChain(fuzz_params, [fuzz_headers[0]])
        accepted_all = True
        try:
            for pos in range(1, len(raws)):
                chain.append(candidate if pos == idx else fuzz_headers[pos])
        except BlockRejected:
            accepted_all = False
        if accepted_all:
            # only legitimate if the mutation re-mined a genuinely valid header
            genuinely_valid = (
                check_pow(candidate)
                and candidate.prev_hash == fuzz_headers[idx - 1].hash()
                and candidate.bits == fuzz_headers[idx].bits
                and (idx == len(raws) - 1 or fuzz_headers[idx + 1].prev_hash == candidate.hash())
            )
            if genuinely_valid:
                lucky_valid += 1
            else:
                invalid_accepted += 1
    ok = verify_time < 2.0 and invalid_accepted == 0
    report(
        "8 header verification",
        ok,
        f"2016 headers in {verify_time:.2f}s; fuzz 10k: {invalid_accepted} invalid accepted, "
        f"{lucky_valid} lucky re-mines",
    )


# ----------------------------------------------------------------------
# 9. settlement generation at scale

def test_criterion_9_settlement_generation_2000x2001():
    n_users = 2_000
    harness = World(seed=900, premine=2)
    hub, node = harness.hub, harness.node
    rng = DeterministicRng(901)

    users = []
    managers = []
    for i in range(n_users):
        keys = Keys.generate(FAST.auth, rng)
        hub.add_user(keys.public, keys.address)
        users.append(keys)

        managers.append(hub.add_deposit(keys.sign(wire.AddDeposit(keys.address, 0))))

    # one fan-out transaction funds every manager address on-chain
    coin_op, coin_out = next(iter(node.wallet.utxos.items()))
    wsk, wpk = node.wallet.keys[coin_out.lock_address]
    deposit_value = 50_000
    fanout = Transaction(
        [TxInput(coin_op[0], coin_op[1], coin_out.value)],
        [TxOutput(deposit_value, m) for m in managers]
        + [TxOutput(coin_out.value - n_users * deposit_value, node.wallet.fresh_address())],
    )
    fanout.inputs[0].unlock = make_unlock(FAST.onchain, wsk, wpk, fanout.sighash())
    node.submit_tx(fanout)
    harness.insert(node.mine_block())
    assert len(hub.owned) == n_users

    # queue 2,000 requests; fees keep every prefix infeasible until the last

    fee_avg = hub.estimator.fee_avg
    base_fee = 34 * fee_avg
    for keys in users[:-1]:
        hub.request_settlement(keys.sign(wire.Settle(keys.address, 1, 40_000, base_fee)))
        assert hub.plan is None
    start = time.perf_counter()
    last = users[-1]
    hub.request_settlement(last.sign(wire.Settle(last.address, 1, 40_000, base_fee + 60)))
    assert hub.sign_plan()
    build_time = time.perf_counter() - start
    plan = hub.plan
    assert plan is not None

    node.submit_tx(plan.transaction)  # full validation incl. 2,000 signatures
    block = node.mine_block()
    assert plan.transaction.txid() in [tx.txid() for tx in block.txs]

    ok = (
        plan.tx_inputs == 2_000
        and plan.tx_outputs == 2_001
        and plan.tx_size == 364_044
        and build_time < 30.0
    )
    report(
        "9 settlement generation 2000x2001",
        ok,
        f"built+signed in {build_time:.2f}s, tx_size {plan.tx_size}, accepted on chain",
    )


# ----------------------------------------------------------------------
# 10. session robustness under adversarial relays

def test_criterion_10_session_robustness():
    start = time.perf_counter()
    harness = World(seed=1000)
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 50_000_000)
    harness.set_boundary(bob)
    hub = harness.hub
    endpoint = LocalHubEndpoint(hub, session_rng=DeterministicRng(10))
    session_rng = DeterministicRng(11)
    meta_rng = random.Random(1010)

    double_applied = 0
    leaked = 0
    markers = (alice.address, bob.address)
    attempts_per_schedule = 2
    for schedule_idx in range(1_000):
        relay = Relay(RelaySchedule(
            seed=schedule_idx,
            p_drop=meta_rng.random() * 0.6,
            p_duplicate=meta_rng.random() * 0.6,
            p_reorder=meta_rng.random() * 0.6,
            max_hold=meta_rng.randrange(1, 4),
        ))
        for _ in range(attempts_per_schedule):
            nonce_before = hub.users[alice.address].nonce
            credit_before = hub.users[bob.address].balance
            try:
                conn = LocalConnection(endpoint, relay=relay, rng=session_rng)
                msg = wire.Payment(alice.address, nonce_before, [wire.PaymentItem(bob.address, 1, 2)])
                conn.request(alice.sign(msg))
            except RouteeError:
                pass
            finally:
                try:
                    conn.flush_relay()
                except RouteeError:
                    pass
            applied = hub.users[alice.address].nonce - nonce_before
            credited = hub.users[bob.address].balance - credit_before
            if applied > 1 or credited > applied:
                double_applied += 1
        if any(m in relay.observed_bytes() for m in markers):
            leaked += 1
    conservation = hub.conservation()["ok"]
    elapsed = time.perf_counter() - start
    ok = double_applied == 0 and leaked == 0 and conservation and elapsed < 120.0
    report(
        "10 session robustness",
        ok,
        f"1000 schedules, double-applied={double_applied}, leaks={leaked}, {elapsed:.1f}s",
    )
