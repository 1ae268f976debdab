"""End-to-end attack scenarios with machine-readable verdicts.

Each scenario stands up a fresh simchain and hub from one seed, plays an
attack strategy, and derives its verdict purely from observable chain and
ledger state. The vulnerable least-set-of-oldest-deposits settlement builder
lives only here, as a baseline oracle; the hub itself has no code path to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import wire
from .client import (
    Keys,
    LocalConnection,
    LocalHubEndpoint,
    build_add_deposit,
    build_insert_block,
    build_payment,
    build_settle,
    build_terminate,
    build_update_boundary,
)
from .crypto import CryptoSuite, DeterministicRng
from .errors import TxRejected
from .headers import ChainParams
from .hub import Hub, HubConfig, OwnedDeposit
from .lightclient import StaticHeaderSource, NodeHeaderSource, choose_boundary, sync_headers
from .relay import Relay, RelaySchedule
from .simchain import SimNode, forge_chain
from .transactions import Transaction, TxInput, TxOutput, formula_size, make_unlock


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    verdict: str = "error"  # defended | vulnerable | error
    steps: list[str] = field(default_factory=list)
    deltas: dict[str, int] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def log(self, message: str) -> None:
        self.steps.append(message)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "verdict": self.verdict,
            "steps": self.steps,
            "deltas": self.deltas,
            "details": self.details,
        }


class World:
    """One deterministic simchain (8 blocks mined ahead) and hub pairing
    driven by a single seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.suite = CryptoSuite.fast_test()
        self.rng = DeterministicRng(seed ^ 0x5EED)
        self.params = ChainParams.regtest()
        self.node = SimNode(self.params, seed=seed)
        self.node.mine_blocks(8)
        self.host = Keys.generate(self.suite.auth, self.rng)
        self.host_settle = self.rng.randbytes(20)
        config = HubConfig(
            self.host.public,
            self.host_settle,
            min_routing_fee=2,
            chain_params=self.params,
            suite=self.suite,
            rng_seed=self.rng.randbytes(32),
        )
        self.hub = Hub(config)
        headers = [b.header for b in self.node.blocks]
        self.hub.initialize(headers[0], 0, headers[1:], self.node.blocks)

    def new_user(self) -> tuple[Keys, bytes, bytes]:
        keys = Keys.generate(self.suite.auth, self.rng)
        settle = self.rng.randbytes(20)
        address = self.hub.add_user(keys.public, settle)
        return keys, address, settle

    def insert(self, block) -> None:
        msg = build_insert_block(self.suite.auth, self.host, block.serialize(), block.header.hash())
        self.hub.insert_block(msg)

    def deposit(self, keys: Keys, amount: int) -> bytes:
        user = self.hub.users[keys.address]
        manager = self.hub.add_deposit(build_add_deposit(self.suite.auth, keys, user.nonce))
        self.node.pay(manager, amount)
        block = self.node.mine_block()
        self.insert(block)
        return manager

    def set_boundary_tip(self, keys: Keys) -> int:
        user = self.hub.users[keys.address]
        height = self.hub.chain.tip_height
        msg = build_update_boundary(
            self.suite.auth, keys, user.nonce, height, self.hub.chain.hash_at(height)
        )
        return self.hub.update_boundary_block(msg)

    def pay(self, sender: Keys, receiver_address: bytes, amount: int, fee: int) -> None:
        user = self.hub.users[sender.address]
        msg = build_payment(self.suite.auth, sender, user.nonce, [wire.PaymentItem(receiver_address, amount, fee)])
        self.hub.multi_hop_payment(msg)

    def settle(self, keys: Keys, amount: int, fee: int) -> None:
        user = self.hub.users[keys.address]
        self.hub.request_settlement(build_settle(self.suite.auth, keys, user.nonce, amount, fee))

    def onchain_value(self, address: bytes) -> int:
        return sum(o.value for o in self.node.utxo.values() if o.lock_address == address)

    def terminate(self) -> None:
        self.hub.terminate(build_terminate(self.suite.auth, self.host, self.hub.chain.tip_hash))

    def run_settlements_to_completion(self) -> int:
        """Honest host loop: broadcast the outstanding plan, mine, insert, for
        at most 32 rounds."""
        rounds = 0
        while not self.hub.termination_complete and rounds < 32:
            if self.hub.plan is not None:
                self.node.submit_tx(self.hub.plan.transaction)
            self.insert(self.node.mine_block())
            rounds += 1
        return rounds


def naive_settlement_tx(
    deposits: list[OwnedDeposit],
    manager_keys: dict[bytes, tuple[bytes, bytes]],
    scheme,
    payout_address: bytes,
    amount: int,
    fee_avg: int,
    change_address: bytes,
) -> tuple[Transaction, list[OwnedDeposit]]:
    """The vulnerable baseline: spend the least set of deposits, oldest first,
    that covers the payout plus the formula fee. Never used by the hub."""
    ordered = sorted(deposits, key=lambda d: (d.source_height, d.outpoint))
    picked: list[OwnedDeposit] = []
    total = 0
    for deposit in ordered:
        picked.append(deposit)
        total += deposit.value
        tx_fee = formula_size(len(picked), 2) * fee_avg
        if total >= amount + tx_fee:
            break
    tx_fee = formula_size(len(picked), 2) * fee_avg
    if total < amount + tx_fee:
        raise ValueError("deposits cannot cover the naive settlement")
    tx = Transaction(
        [TxInput(d.outpoint[0], d.outpoint[1], d.value) for d in picked],
        [TxOutput(amount, payout_address), TxOutput(total - amount - tx_fee, change_address)],
    )
    digest = tx.sighash()
    for txin, deposit in zip(tx.inputs, picked):
        sk, pk = manager_keys[deposit.lock_address]
        txin.unlock = make_unlock(scheme, sk, pk, digest)
    return tx, picked


# ----------------------------------------------------------------------
# scenario: fake deposit via a forged chain

def scenario_fake_deposit(seed: int, builder: str = "spend-all") -> ScenarioReport:
    report = ScenarioReport("fake-deposit", seed, details={"builder": builder})
    w = World(seed)
    hub, node = w.hub, w.node

    alice, alice_addr, _ = w.new_user()
    bob, bob_addr, _ = w.new_user()
    w.deposit(alice, 50_000)
    w.deposit(bob, 70_000)
    honest_outpoints = list(hub.owned.keys())
    honest_value = sum(d.value for d in hub.owned.values())
    report.log(f"honest deposits on main chain: {honest_value} sat in {len(honest_outpoints)} outputs")

    attacker, attacker_addr, attacker_settle = w.new_user()
    user = hub.users[attacker_addr]
    manager = hub.add_deposit(build_add_deposit(w.suite.auth, attacker, user.nonce))

    fork_height = node.tip_height
    forged = forge_chain(node, fork_height, [(manager, 40_000)])
    for block in forged:
        w.insert(block)
    report.log(f"hub accepted {len(forged)} forged blocks on top of height {fork_height}")
    fake_balance = hub.users[attacker_addr].balance
    report.details["fake_balance"] = fake_balance
    if fake_balance <= 0:
        report.verdict = "error"
        report.log("forge failed to credit the attacker")
        return report

    # main chain moves on independently; the hub never sees these blocks
    node.mine_blocks(3)

    settle_amount = fake_balance - 3_000
    w.settle(attacker, settle_amount, 3_000)
    fee_avg = hub.estimator.fee_avg

    if builder == "spend-all":
        plan = hub.plan
        if plan is None:
            report.verdict = "error"
            report.log("no settlement plan was built")
            return report
        fake_inputs = [op for op in plan.input_outpoints if op not in honest_outpoints]
        report.log(
            f"spend-all plan uses {plan.tx_inputs} inputs, {len(fake_inputs)} of them fake"
        )
        try:
            node.submit_tx(plan.transaction)
            report.verdict = "vulnerable"
            report.log("main chain accepted the settlement (unexpected)")
        except TxRejected as exc:
            report.verdict = "defended"
            report.log(f"main chain rejected the settlement: {exc.code}")
            report.details["reject_code"] = exc.code
        still_there = all(op in node.utxo for op in honest_outpoints)
        report.deltas["honest_onchain_change"] = (
            sum(node.utxo[op].value for op in honest_outpoints if op in node.utxo) - honest_value
        )
        report.details["honest_deposits_intact"] = still_there
        if not still_there:
            report.verdict = "vulnerable"
    else:
        change = w.rng.randbytes(20)
        tx, picked = naive_settlement_tx(
            [hub.owned[op] for op in honest_outpoints],
            hub.manager_keys,
            w.suite.onchain,
            attacker_settle,
            settle_amount,
            fee_avg,
            change,
        )
        try:
            node.submit_tx(tx)
            node.mine_block()
            stolen = sum(d.value for d in picked)
            report.verdict = "vulnerable"
            report.deltas["stolen"] = stolen
            report.deltas["honest_deposits_spent"] = sum(
                d.value for d in picked if d.outpoint in honest_outpoints
            )
            report.details["attacker_payout"] = w.onchain_value(attacker_settle)
            report.log(
                f"naive settlement accepted on the main chain; {stolen} sat of honest deposits spent"
            )
        except TxRejected as exc:
            report.verdict = "error"
            report.log(f"naive settlement unexpectedly rejected: {exc.code}")

    # eclipse arm: a light client offered both chains keeps the honest one
    forged_headers = [b.header.serialize() for b in node.blocks[: fork_height + 1]] + [
        b.header.serialize() for b in forged
    ]
    store = sync_headers(
        [("honest", NodeHeaderSource(node)), ("forged", StaticHeaderSource(forged_headers))],
        w.params,
    )
    selected = store.selected
    boundary_height, _ = choose_boundary(store, 1)
    report.details["selected_peer"] = selected.peer_id
    report.details["boundary_height"] = boundary_height
    if selected.chain.tip_hash != node.chain.tip_hash:
        report.verdict = "vulnerable"
        report.log("light client selected the forged chain")
    else:
        report.log("light client kept the honest chain by cumulative work")
    return report


# ----------------------------------------------------------------------
# scenario: abortion economics

def _economics_world(seed: int, with_fees: bool) -> World:
    w = World(seed)
    alice, _, _ = w.new_user()
    bob, bob_addr, _ = w.new_user()
    w.deposit(alice, 200_000)
    w.insert(w.node.mine_block())
    w.set_boundary_tip(bob)
    if with_fees:
        for _ in range(5):
            w.pay(alice, bob_addr, 4_000, 1_000)
    return w


def scenario_abort_economics(seed: int) -> ScenarioReport:
    report = ScenarioReport("abort-economics", seed)

    # strategy payoff = coins the host can actually spend on the main chain
    def payoff_honest() -> int:
        w = _economics_world(seed, with_fees=True)
        w.terminate()
        w.run_settlements_to_completion()
        return w.onchain_value(w.host_settle)

    def payoff_shutdown() -> int:
        w = _economics_world(seed, with_fees=True)
        return w.onchain_value(w.host_settle)

    def payoff_stop_feeding() -> int:
        w = _economics_world(seed, with_fees=True)
        w.terminate()
        # plans may exist, but without inserted blocks nothing ever confirms
        w.node.mine_blocks(5)
        return w.onchain_value(w.host_settle)

    def payoff_withhold() -> int:
        w = _economics_world(seed, with_fees=True)
        w.terminate()
        plan1 = w.hub.plan
        if plan1 is None:
            return w.onchain_value(w.host_settle)
        rf_before = w.hub.rf_confirmed
        # withhold plan1 but fake-confirm it inside the hub via a forged block
        forger = w.node.clone_at(w.node.tip_height)
        forger.submit_tx(plan1.transaction)
        w.insert(forger.mine_block())
        report.details["rf_confirmed_after_fake_confirm"] = w.hub.rf_confirmed
        plan2 = w.hub.plan
        if plan2 is not None:
            try:
                w.node.submit_tx(plan2.transaction)
                report.details["chained_plan_on_main"] = "accepted"
            except TxRejected as exc:
                report.details["chained_plan_on_main"] = exc.code
        report.details["rf_delta_fakeness"] = w.hub.rf_confirmed - rf_before
        return w.onchain_value(w.host_settle)

    payoffs = {
        "honest": payoff_honest(),
        "shutdown": payoff_shutdown(),
        "stop-feeding": payoff_stop_feeding(),
        "withhold-broadcast": payoff_withhold(),
    }
    report.deltas.update(payoffs)
    report.log(f"payoffs: {payoffs}")

    dishonest_max = max(v for k, v in payoffs.items() if k != "honest")
    if payoffs["honest"] > dishonest_max:
        report.verdict = "defended"
        report.log("honest operation strictly maximizes host payoff")
    else:
        report.verdict = "vulnerable"
        report.log("a dishonest strategy matched or beat honesty")

    # freeze property: withholding one settlement freezes later confirmations
    w = _economics_world(seed, with_fees=True)
    w.terminate()
    frozen_rf = w.hub.rf_confirmed
    w.node.mine_blocks(4)
    for height in range(w.hub.chain.tip_height + 1, w.node.tip_height + 1):
        w.insert(w.node.get_block(height))
    report.details["rf_confirmed_frozen"] = w.hub.rf_confirmed == frozen_rf
    if w.hub.rf_confirmed != frozen_rf:
        report.verdict = "vulnerable"
        report.log("confirmations advanced without the settlement broadcast")
    else:
        report.log("withholding the broadcast froze all later fee confirmations")

    # boundary case: with no pending fees every strategy ties at zero
    w0 = _economics_world(seed + 1, with_fees=False)
    tie = w0.onchain_value(w0.host_settle)
    report.details["zero_fee_tie"] = tie == 0
    report.log(f"rf_pending=0 edge: all strategies tie at {tie}")
    return report


# ----------------------------------------------------------------------
# scenario: message abuse through the relay

def scenario_message_abuse(seed: int) -> ScenarioReport:
    report = ScenarioReport("message-abuse", seed)
    w = World(seed)
    hub = w.hub
    session_rng = DeterministicRng(seed ^ 0xAB)

    alice, alice_addr, _ = w.new_user()
    bob, bob_addr, _ = w.new_user()
    dave, dave_addr, _ = w.new_user()
    w.deposit(alice, 300_000)
    w.deposit(dave, 300_000)
    w.insert(w.node.mine_block())
    w.set_boundary_tip(bob)

    endpoint = LocalHubEndpoint(hub, session_rng=session_rng)

    # --- replay: one payment envelope injected 100 extra times ---
    conn = LocalConnection(endpoint, rng=session_rng)
    nonce = hub.users[alice_addr].nonce
    payment = build_payment(w.suite.auth, alice, nonce, [wire.PaymentItem(bob_addr, 500, 10)])
    frame = wire.pack_frame(wire.FRAME_ENVELOPE, conn.session.seal(wire.encode_request(payment)))
    bob_before = hub.users[bob_addr].balance
    endpoint.handle_frame(frame)
    for _ in range(100):
        endpoint.handle_frame(frame)
    credited = hub.users[bob_addr].balance - bob_before
    report.deltas["replay_credited"] = credited
    replay_ok = credited == 500
    report.log(f"replayed payment x100: receiver credited {credited} (want 500 exactly once)")

    # --- drop schedule: lost requests never cost anyone funds ---
    relay = Relay(RelaySchedule(seed=seed, p_drop=0.5))
    sent = applied = 0
    alice_before = hub.users[alice_addr].balance
    bob_before = hub.users[bob_addr].balance
    for _ in range(30):
        conn = LocalConnection(endpoint, relay=relay, rng=session_rng)
        nonce = hub.users[alice_addr].nonce
        payment = build_payment(w.suite.auth, alice, nonce, [wire.PaymentItem(bob_addr, 100, 10)])
        sent += 1
        try:
            conn.request(payment)
            applied += 1
        except Exception:
            pass
    debited = alice_before - hub.users[alice_addr].balance
    credited = hub.users[bob_addr].balance - bob_before
    conservation = hub.conservation()
    drop_ok = debited == applied * 110 and credited == applied * 100 and conservation["ok"]
    report.deltas["drop_sent"] = sent
    report.deltas["drop_applied"] = applied
    report.details["drop_conservation"] = conservation["ok"]
    report.log(
        f"drop schedule: {applied}/{sent} payments applied, debits {debited}, credits {credited}"
    )

    # --- duplicate schedule: the sequence defense blocks double application ---
    relay = Relay(RelaySchedule(seed=seed + 1, p_duplicate=1.0))
    dup_applied = 0
    bob_before = hub.users[bob_addr].balance
    for _ in range(10):
        conn = LocalConnection(endpoint, relay=relay, rng=session_rng)
        nonce = hub.users[alice_addr].nonce
        payment = build_payment(w.suite.auth, alice, nonce, [wire.PaymentItem(bob_addr, 100, 10)])
        try:
            conn.request(payment)
        except Exception:
            pass
        dup_applied = (hub.users[bob_addr].balance - bob_before) // 100
    dup_ok = dup_applied == 10
    report.deltas["duplicate_applied"] = dup_applied
    report.log(f"duplicate-everything: {dup_applied}/10 payments applied exactly once")

    # --- reorder: fees ride inside the signed message, so order cannot
    #     change what a sender pays ---
    relay = Relay(RelaySchedule(seed=seed + 2, p_reorder=0.6, max_hold=3))
    fee_log: list[tuple[int, int]] = []
    for i in range(12):
        sender, sender_addr = (alice, alice_addr) if i % 2 == 0 else (dave, dave_addr)
        conn = LocalConnection(endpoint, relay=relay, rng=session_rng)
        nonce = hub.users[sender_addr].nonce
        signed_fee = 10 + i
        payment = build_payment(
            w.suite.auth, sender, nonce, [wire.PaymentItem(bob_addr, 50, signed_fee)]
        )
        rf_before = hub.rf_pending
        try:
            conn.request(payment)
            fee_log.append((signed_fee, hub.rf_pending - rf_before))
        except Exception:
            conn.flush_relay()
            fee_log.append((signed_fee, hub.rf_pending - rf_before))
    reorder_ok = all(taken in (0, signed) for signed, taken in fee_log)
    reorder_applied = sum(1 for _, taken in fee_log if taken > 0)
    report.deltas["reorder_applied"] = reorder_applied
    report.details["reorder_fees_match_signed"] = reorder_ok
    report.log(f"reorder schedule: every accepted fee equals the sender-signed fee: {reorder_ok}")

    # --- leakage: the relay byte stream never shows plaintext markers ---
    observed = relay.observed_bytes()
    markers = [bob_addr, alice_addr, dave_addr]
    leaked = any(marker in observed for marker in markers)
    report.details["plaintext_leaked"] = leaked
    report.log(f"relay observed {len(observed)} bytes; plaintext marker present: {leaked}")

    if replay_ok and drop_ok and dup_ok and reorder_ok and not leaked:
        report.verdict = "defended"
    else:
        report.verdict = "vulnerable"
    return report


SCENARIOS = {
    "fake-deposit": scenario_fake_deposit,
    "abort-economics": scenario_abort_economics,
    "message-abuse": scenario_message_abuse,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="routee-scenario")
    parser.add_argument("scenario", choices=sorted(SCENARIOS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--naive", action="store_true",
                        help="fake-deposit only: use the vulnerable baseline builder")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    reports = []
    for name in names:
        if name == "fake-deposit":
            report = scenario_fake_deposit(args.seed, "naive" if args.naive else "spend-all")
        else:
            report = SCENARIOS[name](args.seed)
        reports.append(report)

    for report in reports:
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True))
        else:
            print(f"[{report.scenario}] seed={report.seed} verdict={report.verdict}")
            for step in report.steps:
                print(f"  - {step}")
    expected = "vulnerable" if args.naive else "defended"
    return 0 if all(r.verdict == expected for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
