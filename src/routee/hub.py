"""The routing-hub state machine.

This is the emulated enclave: user accounts, pending and owned deposits, the
settlement queue, the routing-fee ledger, and an internally verified header
chain. It has one caller at a time: the daemon's event loop or an in-process
front end, so it takes no lock and applies every request whole before the next.

Money flow invariant (checked by `conservation()`): the value of every
on-chain deposit the hub owns equals the sum of everything the hub owes —
user balances, the host's withdrawable confirmed fees, queued settlement
requests, the outstanding plan's in-flight value, pending routing fees, the
carried fee reserve, and the per-deposit pre-collected fares.

Users, pending and owned deposits and settle requests are `wire` records,
declared once for memory and for the snapshot. Each fact is held once: a
pending deposit's key lives only in `manager_keys`, and a settlement plan's
size, fee, inputs and leftover are read off its transaction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .blocks import Block
from .crypto import ADDRESS_SIZE, CryptoSuite, DeterministicRng, address_of
from .errors import (
    AlreadyInitialized,
    AlreadyRegistered,
    AuthFailure,
    BlockRejected,
    FeeBelowMinimum,
    FeeTooLow,
    HostAuthFailure,
    HubTerminated,
    InitFailure,
    InsufficientBalance,
    InvalidBlock,
    MalformedFrame,
    MonotonicityViolation,
    NotInChain,
    NotInitialized,
    NotOnTip,
    ReceiverNotReady,
    StaleRequest,
    UnknownType,
    UnknownUser,
)
from .headers import BlockHeader, ChainParams, HeaderChain, merkle_root
from .transactions import (
    FORMULA_INPUT_BYTES,
    FORMULA_OUTPUT_BYTES,
    Outpoint,
    Transaction,
    TxInput,
    TxOutput,
    formula_size,
    make_unlock,
)
from . import wire

DEPOSIT_EXPIRY_BLOCKS = 100
FEE_WINDOW_CAPACITY = 2016


@dataclass
class HubConfig:
    host_public_key: bytes
    host_settle_address: bytes
    min_routing_fee: int
    chain_params: ChainParams = field(default_factory=ChainParams.regtest)
    suite: CryptoSuite = field(default_factory=CryptoSuite.fast_test)
    deposit_expiry_blocks: int = DEPOSIT_EXPIRY_BLOCKS
    rng_seed: bytes | int = 0


@wire.record
class UserState:
    user_address: bytes = wire.fixed("20s")
    public_key: bytes = wire.trailing()
    settle_address: bytes = wire.fixed("20s")
    nonce: int = wire.fixed("Q")
    balance: int = wire.fixed("Q")
    max_source_block: int | None = wire.tagged()
    boundary_block: int | None = wire.tagged()


@wire.record
class PendingDeposit:
    manager_address: bytes = wire.fixed("20s")
    beneficiary: bytes = wire.fixed("20s")
    expiry_height: int = wire.fixed("Q")


@wire.record
class OwnedDeposit:
    txid: bytes = wire.fixed("32s")
    vout: int = wire.fixed("I")
    value: int = wire.fixed("Q")
    fare_precollected: int = wire.fixed("Q")
    source_height: int = wire.fixed("Q")
    lock_address: bytes = wire.fixed("20s")

    @property
    def outpoint(self) -> Outpoint:
        return (self.txid, self.vout)


@wire.record
class SettleRequest:
    user_address: bytes = wire.fixed("20s")
    settle_address: bytes = wire.fixed("20s")
    amount: int = wire.fixed("Q")
    fee: int = wire.fixed("Q")
    enqueue_seq: int = wire.fixed("Q")
    is_host: bool = wire.fixed("?")

    @property
    def total(self) -> int:
        return self.amount + self.fee


class FeeEstimator:
    """Per-block satoshi/byte samples over a bounded window; blocks without a
    non-coinbase transaction contribute no sample. The average never drops
    below 1 so settlements are never free."""

    def __init__(self):
        self.window: deque[int] = deque(maxlen=FEE_WINDOW_CAPACITY)

    def add_block(self, block: Block) -> None:
        fees = 0
        size = 0
        for tx in block.txs:
            if tx.is_coinbase:
                continue
            fees += tx.fee()
            size += formula_size(len(tx.inputs), len(tx.outputs))
        if size:
            self.window.append(fees // size)

    @property
    def fee_avg(self) -> int:
        if not self.window:
            return 1
        return max(1, sum(self.window) // len(self.window))


@dataclass
class SettlementPlan:
    """An outstanding spend-all settlement. Its size, fee, inputs and
    leftover output are read off the signed transaction, whose last output
    is the leftover."""

    transaction: Transaction
    selected: list[SettleRequest]
    s_amount: int
    b_total: int
    rf_confirmed_on_confirm: int
    collected: int
    host_subsidy: int = 0

    def __post_init__(self):
        # hashed once, by the request that builds or restores the plan:
        # every inserted block compares its transactions against it
        self.txid: bytes = self.transaction.txid()

    @property
    def tx_inputs(self) -> int:
        return len(self.transaction.inputs)

    @property
    def tx_outputs(self) -> int:
        return len(self.transaction.outputs)

    @property
    def tx_size(self) -> int:
        return formula_size(self.tx_inputs, self.tx_outputs)

    @property
    def tx_fee(self) -> int:
        return self.transaction.fee()

    @property
    def leftover_outpoint(self) -> Outpoint:
        return (self.txid, self.tx_outputs - 1)

    @property
    def input_outpoints(self) -> list[Outpoint]:
        return [txin.outpoint for txin in self.transaction.inputs]


@dataclass
class InsertReport:
    height: int
    credited: list[tuple[bytes, int]]
    expired: int
    confirmed_plan: bool
    plan_built: bool


class Hub:
    def __init__(self, config: HubConfig):
        self.config = config
        self.suite = config.suite
        self.rng = DeterministicRng(config.rng_seed)

        self.chain: HeaderChain | None = None
        self.estimator = FeeEstimator()
        self.users: dict[bytes, UserState] = {}
        self.pending_deposits: dict[bytes, PendingDeposit] = {}
        self.owned: dict[Outpoint, OwnedDeposit] = {}
        self.manager_keys: dict[bytes, tuple[bytes, bytes]] = {}
        self.queue: list[SettleRequest] = []
        self._next_enqueue_seq = 0
        self.plan: SettlementPlan | None = None
        self.plans_confirmed = 0

        self.rf_pending = 0
        self.rf_confirmed = 0        # cumulative confirmed routing fees
        self.host_balance = 0        # confirmed fees not yet paid out on-chain
        self.fee_reserve = 0
        self.rf_collected_total = 0  # cumulative routing fees taken from senders
        self.settled_amount_total = 0
        self.terminating = False

    # ------------------------------------------------------------------
    # initialization

    def initialize(
        self,
        start_header: BlockHeader,
        start_height: int,
        headers: list[BlockHeader],
        fee_window_blocks: list[Block],
    ) -> None:
        """Build and verify the internal header chain from a trusted start
        header, then prime the fee estimator from full blocks that must belong
        to the verified chain."""
        if self.chain is not None:
            raise AlreadyInitialized()
        try:
            chain = HeaderChain(self.config.chain_params, start_header, start_height)
        except ValueError as exc:
            raise InitFailure(str(exc))
        for i, header in enumerate(headers):
            try:
                chain.append(header)
            except BlockRejected as exc:
                raise InitFailure(f"header at height {start_height + 1 + i}: {exc.code}")
        height_by_hash = {
            chain.hash_at(h): h
            for h in range(chain.start_height, chain.tip_height + 1)
        }
        for block in fee_window_blocks:
            height = height_by_hash.get(block.header.hash())
            if height is None:
                raise InitFailure("fee window block not in verified chain")
            if merkle_root(block.txids()) != block.header.merkle_root:
                raise InitFailure(f"fee window block at height {height}: merkle mismatch")
            self.estimator.add_block(block)
        self.chain = chain

    def _require_init(self) -> HeaderChain:
        if self.chain is None:
            raise NotInitialized()
        return self.chain

    # ------------------------------------------------------------------
    # user operations

    def add_user(self, public_key: bytes, settle_address: bytes) -> bytes:
        self._require_init()
        if self.terminating:
            raise HubTerminated()
        user_address = address_of(public_key)
        if user_address in self.users:
            raise AlreadyRegistered()
        if len(settle_address) != ADDRESS_SIZE:
            raise AuthFailure("settle address must be 20 bytes")
        self.users[user_address] = UserState(user_address, public_key, settle_address, 0, 0, None, None)
        return user_address

    def _authenticate(self, user_address: bytes, nonce: int, signature: bytes, digest: bytes) -> UserState:
        """Verify signature and nonce. Failures here do not consume the nonce;
        any later business rejection does (the caller bumps it)."""
        user = self.users.get(user_address)
        if user is None:
            raise UnknownUser(user_address.hex())
        if not self.suite.auth.verify(user.public_key, digest, signature):
            raise AuthFailure("bad signature")
        if nonce != user.nonce:
            raise StaleRequest(f"nonce {nonce}, expected {user.nonce}")
        return user

    def add_deposit(self, msg: wire.AddDeposit) -> bytes:
        chain = self._require_init()
        user = self._authenticate(msg.user_address, msg.nonce, msg.signature, msg.signing_digest())
        user.nonce += 1
        if self.terminating:
            raise HubTerminated()
        sk, pk = self.suite.onchain.generate(self.rng)
        manager_address = address_of(pk)
        self.pending_deposits[manager_address] = PendingDeposit(
            manager_address, user.user_address, chain.tip_height + self.config.deposit_expiry_blocks
        )
        self.manager_keys[manager_address] = (sk, pk)
        return manager_address

    def update_boundary_block(self, msg: wire.UpdateBoundary) -> int:
        chain = self._require_init()
        user = self._authenticate(msg.user_address, msg.nonce, msg.signature, msg.signing_digest())
        user.nonce += 1
        if not chain.has_header(msg.block_number, msg.block_hash):
            raise NotInChain(f"height {msg.block_number}")
        if user.boundary_block is not None and msg.block_number <= user.boundary_block:
            raise MonotonicityViolation(
                f"boundary {msg.block_number} not above {user.boundary_block}"
            )
        user.boundary_block = msg.block_number
        return msg.block_number

    def multi_hop_payment(self, msg: wire.Payment) -> int:
        """Apply a batch of routed payments atomically: either every item in
        the batch lands or none do."""
        self._require_init()
        sender = self._authenticate(msg.sender_address, msg.nonce, msg.signature, msg.signing_digest())
        sender.nonce += 1
        if self.terminating:
            raise HubTerminated()
        if not msg.batch:
            raise ReceiverNotReady("empty batch")

        users = self.users
        min_fee = self.config.min_routing_fee
        source = sender.max_source_block
        total = 0
        resolved = []
        for item in msg.batch:
            fee = item.routing_fee
            if fee < min_fee:
                raise FeeBelowMinimum(f"routing fee {fee} below {min_fee}")
            receiver = users.get(item.receiver)
            if receiver is None:
                raise UnknownUser(item.receiver.hex())
            boundary = receiver.boundary_block
            if boundary is None:
                raise ReceiverNotReady("receiver has no boundary block")
            if source is not None and source > boundary:
                raise ReceiverNotReady(
                    f"sender source {source} beyond boundary {boundary}"
                )
            total += item.amount + fee
            resolved.append(receiver)
        if total > sender.balance:
            raise InsufficientBalance(f"need {total}, have {sender.balance}")

        sender.balance -= total
        fees = 0
        for item, receiver in zip(msg.batch, resolved):
            receiver.balance += item.amount
            fees += item.routing_fee
            if source is not None:
                if receiver.max_source_block is None or receiver.max_source_block < source:
                    receiver.max_source_block = source
        self.rf_pending += fees
        self.rf_collected_total += fees
        return len(msg.batch)

    def request_settlement(self, msg: wire.Settle) -> int:
        self._require_init()
        user = self._authenticate(msg.user_address, msg.nonce, msg.signature, msg.signing_digest())
        user.nonce += 1
        min_fee = FORMULA_OUTPUT_BYTES * self.estimator.fee_avg
        if msg.fee < min_fee:
            raise FeeTooLow(f"fee {msg.fee} below {min_fee}")
        if msg.amount < 1:
            raise FeeTooLow("amount must be positive")
        if msg.amount + msg.fee > user.balance:
            raise InsufficientBalance(f"need {msg.amount + msg.fee}, have {user.balance}")
        user.balance -= msg.amount + msg.fee
        seq = self._enqueue(user.user_address, user.settle_address, msg.amount, msg.fee)
        self.try_build_settlement()
        return seq

    def _enqueue(self, user_address: bytes, settle_address: bytes, amount: int, fee: int, is_host: bool = False) -> int:
        seq = self._next_enqueue_seq
        self._next_enqueue_seq += 1
        request = SettleRequest(user_address, settle_address, amount, fee, seq, is_host)
        self.queue.append(request)
        # fee descending, ties oldest first
        self.queue.sort(key=lambda r: (-r.fee, r.enqueue_seq))
        return seq

    # ------------------------------------------------------------------
    # settlement planning

    def try_build_settlement(self) -> SettlementPlan | None:
        """Greedy spend-all settlement: pick the largest fee-sorted prefix of
        the queue whose collected fees (deposit fares + request fees + carried
        reserve) cover the formula transaction fee."""
        if self.plan is not None or not self.owned or not self.queue:
            return None
        fee_avg = self.estimator.fee_avg
        deposits = list(self.owned.values())
        n_inputs = len(deposits)
        fares = sum(d.fare_precollected for d in deposits)
        total_in = sum(d.value for d in deposits)

        prefix_fee = 0
        feasible_n = 0
        collected_at_n = 0
        host_subsidy = 0
        prefix_fees = []
        for request in self.queue:
            prefix_fee += request.fee
            prefix_fees.append(prefix_fee)
        for n in range(len(self.queue), 0, -1):
            tx_fee = formula_size(n_inputs, n + 1) * fee_avg
            collected = fares + prefix_fees[n - 1] + self.fee_reserve
            if collected >= tx_fee:
                feasible_n = n
                collected_at_n = collected
                break
        if feasible_n == 0:
            if not self.terminating:
                return None
            # termination must drain every balance: the host covers the
            # shortfall from its confirmed fees to buy the confirmations
            n_full = len(self.queue)
            tx_fee_full = formula_size(n_inputs, n_full + 1) * fee_avg
            collected_full = fares + prefix_fees[-1] + self.fee_reserve
            shortfall = tx_fee_full - collected_full
            if shortfall > self.host_balance:
                return None
            host_subsidy = shortfall
            self.host_balance -= shortfall
            feasible_n = n_full
            collected_at_n = collected_full + shortfall

        n = feasible_n
        selected = self.queue[:n]
        tx_fee = formula_size(n_inputs, n + 1) * fee_avg

        # user-owned value measures for the pro-rata fee confirmation;
        # host withdrawals queue like requests but are not user value
        s_amount = sum(r.total for r in selected if not r.is_host)
        b_total = sum(u.balance for u in self.users.values())
        b_total += sum(r.total for r in self.queue if not r.is_host)
        if b_total == 0:
            rf_delta = self.rf_pending
        else:
            rf_delta = min(self.rf_pending, self.rf_pending * s_amount // b_total)

        # the leftover output, last, goes to a fresh manager key
        sk, pk = self.suite.onchain.generate(self.rng)
        manager_address = address_of(pk)
        self.manager_keys[manager_address] = (sk, pk)
        amounts = sum(r.amount for r in selected)

        tx = Transaction(
            [TxInput(op[0], op[1], d.value) for op, d in self.owned.items()],
            [TxOutput(r.amount, r.settle_address) for r in selected]
            + [TxOutput(total_in - amounts - tx_fee, manager_address)],
        )
        digest = tx.sighash()
        for txin, deposit in zip(tx.inputs, self.owned.values()):
            dep_sk, dep_pk = self.manager_keys[deposit.lock_address]
            txin.unlock = make_unlock(self.suite.onchain, dep_sk, dep_pk, digest)

        self.queue = self.queue[n:]
        self.rf_pending -= rf_delta
        self.plan = SettlementPlan(tx, selected, s_amount, b_total, rf_delta, collected_at_n, host_subsidy)
        return self.plan

    def _confirm_plan(self, height: int) -> None:
        plan = self.plan
        assert plan is not None
        for outpoint in plan.input_outpoints:
            self.owned.pop(outpoint)
        leftover = plan.transaction.outputs[-1]
        self.owned[plan.leftover_outpoint] = OwnedDeposit(
            *plan.leftover_outpoint, leftover.value, 0, height, leftover.lock_address
        )
        self.fee_reserve = plan.collected - plan.tx_fee
        self.rf_confirmed += plan.rf_confirmed_on_confirm
        self.host_balance += plan.rf_confirmed_on_confirm
        self.settled_amount_total += sum(r.amount for r in plan.selected)
        self.plans_confirmed += 1
        self.plan = None

    # ------------------------------------------------------------------
    # host operations

    def _verify_host(self, digest: bytes, signature: bytes) -> None:
        if not self.suite.auth.verify(self.config.host_public_key, digest, signature):
            raise HostAuthFailure()

    def insert_block(self, msg: wire.InsertBlock) -> InsertReport:
        chain = self._require_init()
        try:
            block = Block.deserialize(msg.block_bytes)
        except MalformedFrame as exc:
            raise InvalidBlock(f"undecodable block: {exc}")
        header_hash = block.header.hash()
        self._verify_host(wire.InsertBlock.signing_digest_for(header_hash), msg.host_signature)
        if block.header.prev_hash != chain.tip_hash:
            raise NotOnTip(f"prev {block.header.prev_hash.hex()[:16]}")
        if not block.txs:
            raise InvalidBlock("empty block")
        txids = block.txids()
        if merkle_root(txids) != block.header.merkle_root:
            raise InvalidBlock("merkle-mismatch")
        try:
            chain.append(block.header)
        except BlockRejected as exc:
            raise InvalidBlock(exc.code)

        height = chain.tip_height
        self.estimator.add_block(block)

        expired = 0
        for addr in [a for a, p in self.pending_deposits.items() if height > p.expiry_height]:
            del self.pending_deposits[addr]
            expired += 1

        credited: list[tuple[bytes, int]] = []
        confirmed = False
        fee_avg = self.estimator.fee_avg
        for tx, txid in zip(block.txs, txids):
            if self.plan is not None and txid == self.plan.txid:
                self._confirm_plan(height)
                confirmed = True
                continue
            if tx.is_coinbase:
                continue
            for idx, txout in enumerate(tx.outputs):
                pending = self.pending_deposits.get(txout.lock_address)
                if pending is None:
                    continue
                fare = min(txout.value, FORMULA_INPUT_BYTES * fee_avg)
                increase = txout.value - fare
                self.owned[(txid, idx)] = OwnedDeposit(txid, idx, txout.value, fare, height, txout.lock_address)
                user = self.users[pending.beneficiary]
                user.balance += increase
                if user.max_source_block is None or user.max_source_block < height:
                    user.max_source_block = height
                credited.append((pending.beneficiary, increase))
                del self.pending_deposits[txout.lock_address]

        if self.terminating:
            self._termination_progress()
        plan_built = self.try_build_settlement() is not None
        return InsertReport(height, credited, expired, confirmed, plan_built)

    def terminate(self, msg: wire.Terminate) -> int:
        """Stop accepting payments and deposits, then settle every balance.
        Completion needs the host to keep confirming plans via insert_block."""
        chain = self._require_init()
        self._verify_host(msg.signing_digest(), msg.host_signature)
        if msg.tip_hash != chain.tip_hash:
            raise HostAuthFailure("terminate signed against a stale tip")
        if self.terminating:
            return 0
        self.terminating = True
        return self._termination_progress()

    def _terminal_sweep_users(self) -> int:
        """Queue a full-balance settlement for every user. Participants split
        the real formula cost of the terminal transaction (the leftover output
        and base bytes included), with each fee waived down to what the
        balance can afford."""
        holders = [u for u in self.users.values() if u.balance > 0]
        if not holders:
            return 0
        fee_avg = self.estimator.fee_avg
        min_fee = FORMULA_OUTPUT_BYTES * fee_avg
        fares = sum(d.fare_precollected for d in self.owned.values())
        queued_fees = sum(r.fee for r in self.queue)
        outputs = len(self.queue) + len(holders) + 1
        total_cost = formula_size(len(self.owned), outputs) * fee_avg
        fees = {
            u.user_address: (min(min_fee, u.balance - 1) if u.balance > 1 else 0)
            for u in holders
        }
        need = total_cost - fares - self.fee_reserve - queued_fees - sum(fees.values())
        for user in holders:
            if need <= 0:
                break
            spare = user.balance - 1 - fees[user.user_address]
            if spare <= 0:
                continue
            extra = min(spare, need)
            fees[user.user_address] += extra
            need -= extra
        for user in holders:
            fee = fees[user.user_address]
            amount = user.balance - fee
            user.balance = 0
            self._enqueue(user.user_address, user.settle_address, amount, fee)
        return len(holders)

    def _maybe_host_payout(self) -> None:
        """Once every unit of user value is settled and confirmed, pay the
        host's withdrawable fees to its settle address. The fee is sized so
        the payout plan is feasible on its own; a balance too small to carry
        its own transaction is forfeited into the fee reserve instead."""
        if (
            self.plan is not None
            or self.queue
            or self.rf_pending != 0
            or self.host_balance <= 0
            or any(u.balance > 0 for u in self.users.values())
        ):
            return
        fee_avg = self.estimator.fee_avg
        fares = sum(d.fare_precollected for d in self.owned.values())
        needed = formula_size(len(self.owned), 2) * fee_avg - fares - self.fee_reserve
        fee = max(FORMULA_OUTPUT_BYTES * fee_avg, needed)
        if self.host_balance <= fee:
            self.fee_reserve += self.host_balance
            self.host_balance = 0
            return
        amount = self.host_balance - fee
        self.host_balance = 0
        self._enqueue(b"\x00" * ADDRESS_SIZE, self.config.host_settle_address, amount, fee, is_host=True)

    def _termination_progress(self) -> int:
        enqueued = self._terminal_sweep_users()
        self.try_build_settlement()
        self._maybe_host_payout()
        self.try_build_settlement()
        return enqueued

    @property
    def termination_complete(self) -> bool:
        return (
            self.terminating
            and self.plan is None
            and not self.queue
            and self.rf_pending == 0
            and self.host_balance == 0
            and all(u.balance == 0 for u in self.users.values())
        )

    # ------------------------------------------------------------------
    # queries

    def query_latest_block(self) -> dict:
        chain = self._require_init()
        return {
            "height": chain.tip_height,
            "hash": chain.tip_hash,
            "cumulative_work": min(chain.cumulative_work, (1 << 64) - 1),
        }

    def query_user(self, user_address: bytes) -> dict:
        user = self.users.get(user_address)
        if user is None:
            raise UnknownUser(user_address.hex())
        return {
            "address": user.user_address,
            "nonce": user.nonce,
            "balance": user.balance,
            "max_source_block": user.max_source_block,
            "boundary_block": user.boundary_block,
            "settle_address": user.settle_address,
        }

    def query_ledger(self) -> dict:
        parts = self.conservation()
        return {
            "rf_pending": self.rf_pending,
            "rf_confirmed": self.rf_confirmed,
            "host_balance": self.host_balance,
            "fee_reserve": self.fee_reserve,
            "fee_avg": self.estimator.fee_avg,
            "min_routing_fee": self.config.min_routing_fee,
            "rf_collected_total": self.rf_collected_total,
            "settled_amount_total": self.settled_amount_total,
            "users": len(self.users),
            "owned_deposits": len(self.owned),
            "owned_value": parts["owned_value"],
            "fares": parts["fares"],
            "queued": len(self.queue),
            "queued_value": parts["queued_value"],
            "balances_total": parts["balances_total"],
            "in_flight": parts["in_flight"],
            "plan_outstanding": int(self.plan is not None),
            "plans_confirmed": self.plans_confirmed,
            "terminating": int(self.terminating),
            "conservation_ok": int(parts["ok"]),
        }

    def conservation(self) -> dict:
        """Evaluate the ledger identity; `ok` must hold after every operation."""
        owned_value = sum(d.value for d in self.owned.values())
        fares = sum(d.fare_precollected for d in self.owned.values())
        balances_total = sum(u.balance for u in self.users.values())
        queued_value = sum(r.total for r in self.queue)
        in_flight = 0
        if self.plan is not None:
            in_flight = (
                sum(r.total for r in self.plan.selected)
                + self.plan.rf_confirmed_on_confirm
                + self.plan.host_subsidy
            )
        owed = (
            balances_total
            + self.host_balance
            + queued_value
            + in_flight
            + self.rf_pending
            + self.fee_reserve
            + fares
        )
        return {
            "owned_value": owned_value,
            "balances_total": balances_total,
            "queued_value": queued_value,
            "in_flight": in_flight,
            "fares": fares,
            "owed": owed,
            "ok": owned_value == owed,
        }

    # ------------------------------------------------------------------
    # message dispatch (daemon entry point)

    def apply_request(self, req, session_id: bytes = b"\x00" * 8) -> dict:
        if isinstance(req, wire.AddUser):
            return {"user_address": self.add_user(req.public_key, req.settle_address)}
        if isinstance(req, wire.AddDeposit):
            return {"manager_address": self.add_deposit(req)}
        if isinstance(req, wire.UpdateBoundary):
            return {"boundary_block": self.update_boundary_block(req)}
        if isinstance(req, wire.Payment):
            return {"accepted": self.multi_hop_payment(req)}
        if isinstance(req, wire.Settle):
            return {"enqueue_seq": self.request_settlement(req)}
        if isinstance(req, wire.QueryLatestBlock):
            return self.query_latest_block()
        if isinstance(req, wire.QueryLedger):
            return self.query_ledger()
        if isinstance(req, wire.QueryUser):
            user = self.users.get(req.user_address)
            if user is None:
                raise UnknownUser(req.user_address.hex())
            if not self.suite.auth.verify(user.public_key, req.signing_digest(session_id), req.signature):
                raise AuthFailure("query not bound to this session")
            return self.query_user(req.user_address)
        if isinstance(req, wire.InsertBlock):
            report = self.insert_block(req)
            return {
                "height": report.height,
                "credited": len(report.credited),
                "expired": report.expired,
                "confirmed_plan": int(report.confirmed_plan),
                "plan_built": int(report.plan_built),
            }
        if isinstance(req, wire.GetSettlement):
            if self.plan is None:
                return {"present": 0}
            return {
                "present": 1,
                "tx": self.plan.transaction.serialize(),
                "tx_fee": self.plan.tx_fee,
                "tx_size": self.plan.tx_size,
                "tx_inputs": self.plan.tx_inputs,
                "tx_outputs": self.plan.tx_outputs,
                "s_amount": self.plan.s_amount,
                "b_total": self.plan.b_total,
                "rf_confirmed_on_confirm": self.plan.rf_confirmed_on_confirm,
            }
        if isinstance(req, wire.Terminate):
            return {"enqueued": self.terminate(req)}
        if isinstance(req, wire.InitStatus):
            return {
                "initialized": int(self.chain is not None),
                "height": self.chain.tip_height if self.chain else 0,
            }
        raise UnknownType(f"unhandled request {type(req).__name__}")
