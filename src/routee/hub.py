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

No request re-sums a table: the hub keeps running totals, each changed where
its table changes. The fee window's sum changes as a sample enters and the
oldest leaves a full window; owned value and fares where a deposit is credited
and where a confirmed plan's inputs leave and its leftover enters (`_own`);
the balance total on payment (by its fees), settle, credit and the terminal
sweep; the queue's gain, the sum of positive slacks `fee - 34 * fee_avg`, on
enqueue, re-summed when fee_avg moves and emptied when a plan takes the best
prefix. A load derives them. `conservation()` recounts every table and is
`ok` only while each total equals its recount.

Users, pending and owned deposits and settle requests are `wire` records,
declared once for memory and for the snapshot. Each fact is held once: a
pending deposit's key lives only in `manager_keys`, and a settlement plan's
size, fee, inputs and leftover are read off its transaction.

A plan is decided inside the request that builds it and signed afterwards:
`sign_plan` signs its inputs, and the front ends call it between frames, so
that request answers before its ECDSA signatures exist. A plan is matched on
chain by its sighash, which no signature changes.

Each deposit and each plan's leftover goes to a fresh manager key. When the
on-chain scheme's keys do not come from the hub's RNG (ECDSA), the daemon
makes keys ahead between frames, into a small pool (`fill_key_pool`), and a
request takes one from there. A `fast` key is drawn from the RNG inside its
request, in request order, so replays keep their bytes.
"""

from __future__ import annotations

import bisect
import itertools
import time
from collections import deque

from .blocks import Block
from .crypto import ADDRESS_SIZE, CryptoSuite, DeterministicRng, Secret, address_of
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
    MAX_MONEY,
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
QUERY_PROOFS_KEPT = 64  # accepted QueryUser proofs kept, one per connection a daemon serves (netio.MAX_CONNECTIONS)


@wire.plain
class HubConfig:
    host_public_key: bytes
    host_settle_address: bytes
    min_routing_fee: int
    chain_params: ChainParams = wire.fresh(ChainParams.regtest)
    suite: CryptoSuite = wire.fresh(CryptoSuite.fast_test)
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


def queue_order(request: SettleRequest) -> tuple[int, int]:
    """Settlement priority: fee descending, ties oldest first."""
    return (-request.fee, request.enqueue_seq)


def admit_block(block: Block) -> tuple[list[bytes], int | None]:
    """InsertBlock's rule for a block body, which init applies to its fee
    window too: not empty, matching its header's Merkle root, and each fee
    declared from 0 to `MAX_MONEY`, as on a real chain, so no fee sample
    passes a u64. Returns the txids and the fee sample, satoshi/byte over the
    non-coinbase transactions (None without one); else raises InvalidBlock."""
    if not block.txs:
        raise InvalidBlock("empty block")
    txids = block.txids()
    if merkle_root(txids) != block.header.merkle_root:
        raise InvalidBlock("merkle-mismatch")
    fees = size = 0
    for tx in block.txs:
        fee = tx.fee()
        if not 0 <= fee <= MAX_MONEY:
            raise InvalidBlock("fee out of bounds")
        if not tx.is_coinbase:
            fees += fee
            size += formula_size(len(tx.inputs), len(tx.outputs))
    return txids, (fees // size if size else None)


def gain(queue: list[SettleRequest], fee_avg: int) -> int:
    """The sum of the queue's positive slacks: what each fee pays beyond the
    output it adds at `fee_avg`. The queue is fee-sorted, so they lead it."""
    per_output = FORMULA_OUTPUT_BYTES * fee_avg
    paying = bisect.bisect_left(queue, (-per_output, 0), key=queue_order)
    return sum(r.fee for r in queue[:paying]) - paying * per_output


class FeeEstimator:
    """Per-block satoshi/byte samples over a bounded window, with their sum;
    blocks without a non-coinbase transaction contribute no sample. The
    average never drops below 1 so settlements are never free."""

    def __init__(self):
        self.window: deque[int] = deque(maxlen=FEE_WINDOW_CAPACITY)
        self.total = 0

    def add(self, sample: int) -> None:
        if len(self.window) == FEE_WINDOW_CAPACITY:
            self.total -= self.window[0]  # the oldest sample leaves
        self.window.append(sample)
        self.total += sample

    @property
    def fee_avg(self) -> int:
        return max(1, self.total // len(self.window)) if self.window else 1


@wire.plain
class SettlementPlan:
    """An outstanding spend-all settlement. Its size, fee, inputs and
    leftover output are read off its transaction, whose last output is the
    leftover, and its settled user value off the selected requests. It is
    signed once every input's unlock is set."""

    transaction: Transaction
    selected: list[SettleRequest]
    b_total: int
    rf_confirmed_on_confirm: int
    host_subsidy: int = 0

    def __post_init__(self):
        # hashed once, by the request that builds or restores the plan: every
        # input signs it, and it is what a block transaction must match
        self.sighash: bytes = self.transaction.sighash()
        # inputs are signed in order, so the unsigned ones are a suffix
        inputs = self.transaction.inputs
        self.next_unsigned = next((i for i, txin in enumerate(inputs) if not txin.unlock), len(inputs))

    @property
    def signed(self) -> bool:
        return self.next_unsigned == len(self.transaction.inputs)

    @property
    def s_amount(self) -> int:
        # what the pro-rata fee confirmation measures: host withdrawals
        # queue like requests but are not user value
        return sum(r.total for r in self.selected if not r.is_host)

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
    def input_outpoints(self) -> list[Outpoint]:
        return [txin.outpoint for txin in self.transaction.inputs]


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
        self.manager_keys: dict[bytes, tuple[Secret, bytes]] = {}
        # keys made ahead, handed out by `_new_manager_key`; none is referenced
        # before then, so the snapshot leaves them out
        self.key_pool: list[tuple[Secret, bytes]] = []
        self.queue: list[SettleRequest] = []
        self._next_enqueue_seq = 0
        # running totals, each changed where its table changes, so that no
        # request re-sums a table; `_recount` sums them afresh
        self.owned_value = 0
        self.fares = 0
        self.balances_total = 0
        self.queue_gain = 0  # gain(queue, fee_avg), re-summed when fee_avg moves
        self.plan: SettlementPlan | None = None
        self.plans_confirmed = 0

        self.rf_pending = 0
        self.rf_confirmed = 0        # cumulative confirmed routing fees
        self.host_balance = 0        # confirmed fees not yet paid out on-chain
        self.fee_reserve = 0
        self.rf_collected_total = 0  # cumulative routing fees taken from senders
        self.settled_amount_total = 0
        self.terminating = False
        # the signature of each accepted QueryUser, by its digest, which names
        # the user and the session; left out of the snapshot. A wallet that
        # reads again in its session sends the same bytes, since the digest
        # holds no nonce and PKCS#1 v1.5 signs deterministically
        self.query_proofs: dict[bytes, bytes] = {}

    # ------------------------------------------------------------------
    # initialization

    def initialize(
        self,
        start_header: BlockHeader,
        start_height: int,
        headers: list[BlockHeader],
        fee_window_blocks: list[Block],
    ) -> None:
        """Build and verify the internal header chain, which starts at
        genesis: `start_header` is the header at `start_height`, which must
        be 0, and `headers` follow it. Then prime the fee estimator from full
        blocks: the verified chain's last `len(fee_window_blocks)` blocks, in
        order, each admitted by InsertBlock's rule (`admit_block`). Chain and
        window are committed together, so a refused init leaves the hub as
        it was."""
        if self.chain is not None:
            raise AlreadyInitialized()
        if start_height != 0:
            raise InitFailure(f"chain starts at genesis, not at height {start_height}")
        try:
            chain = HeaderChain(self.config.chain_params, [start_header, *headers])
        except BlockRejected as exc:
            raise InitFailure(str(exc))
        estimator = FeeEstimator()  # nothing queues before init: no gain to re-price
        first = chain.tip_height + 1 - len(fee_window_blocks)
        for height, block in enumerate(fee_window_blocks, first):
            try:
                if not chain.has_header(height, block.header.hash()):
                    raise InvalidBlock("not in the verified chain")
                sample = admit_block(block)[1]
            except InvalidBlock as exc:
                raise InitFailure(f"fee window block at height {height}: {exc.detail}")
            if sample is not None:
                estimator.add(sample)
        self.chain, self.estimator = chain, estimator

    def _add_fee_sample(self, sample: int) -> None:
        """Take a fee sample in with a queue standing, as InsertBlock does:
        the queue's gain is priced at fee_avg, so a move re-sums it."""
        fee_avg = self.estimator.fee_avg
        self.estimator.add(sample)
        if self.estimator.fee_avg != fee_avg:
            self.queue_gain = gain(self.queue, self.estimator.fee_avg)

    def _own(self, deposit: OwnedDeposit) -> None:
        """Take a deposit into the owned set and its totals."""
        self.owned[deposit.outpoint] = deposit
        self.owned_value += deposit.value
        self.fares += deposit.fare_precollected

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

    def _authenticate(self, user_address: bytes, msg) -> UserState:
        """Verify a user request's signature and nonce, then consume the
        nonce. Failures here leave the nonce unspent; any later business
        rejection does not give it back."""
        user = self.users.get(user_address)
        if user is None:
            raise UnknownUser(user_address.hex())
        if not self.suite.auth.verify(user.public_key, msg.signing_digest(), msg.signature):
            raise AuthFailure("bad signature")
        if msg.nonce != user.nonce:
            raise StaleRequest(f"nonce {msg.nonce}, expected {user.nonce}")
        user.nonce += 1
        return user

    def add_deposit(self, msg: wire.AddDeposit) -> bytes:
        chain = self._require_init()
        user = self._authenticate(msg.user_address, msg)
        if self.terminating:
            raise HubTerminated()
        manager_address = self._new_manager_key()
        self.pending_deposits[manager_address] = PendingDeposit(
            manager_address, user.user_address, chain.tip_height + DEPOSIT_EXPIRY_BLOCKS
        )
        return manager_address

    def _new_manager_key(self) -> bytes:
        """Keep a fresh on-chain key, one from the pool or else one made now,
        and return its address."""
        sk, pk = self.key_pool.pop() if self.key_pool else self.suite.onchain.generate(self.rng)
        address = address_of(pk)
        self.manager_keys[address] = (sk, pk)
        return address

    def fill_key_pool(self, size: int) -> bool:
        """Make one on-chain key ahead, unless the pool holds `size` keys or
        the scheme draws its keys from the hub's RNG, whose position a replay
        keeps. True once there is no key left to make."""
        onchain = self.suite.onchain
        if onchain.keys_from_rng or len(self.key_pool) >= size:
            return True
        self.key_pool.append(onchain.generate())
        return len(self.key_pool) >= size

    def update_boundary_block(self, msg: wire.UpdateBoundary) -> int:
        chain = self._require_init()
        user = self._authenticate(msg.user_address, msg)
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
        sender = self._authenticate(msg.sender_address, msg)
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
        self.balances_total -= fees
        self.rf_pending += fees
        self.rf_collected_total += fees
        return len(msg.batch)

    def request_settlement(self, msg: wire.Settle) -> int:
        self._require_init()
        user = self._authenticate(msg.user_address, msg)
        min_fee = FORMULA_OUTPUT_BYTES * self.estimator.fee_avg
        if msg.fee < min_fee:
            raise FeeTooLow(f"fee {msg.fee} below {min_fee}")
        if msg.amount < 1:
            raise FeeTooLow("amount must be positive")
        if msg.amount + msg.fee > user.balance:
            raise InsufficientBalance(f"need {msg.amount + msg.fee}, have {user.balance}")
        user.balance -= msg.amount + msg.fee
        self.balances_total -= msg.amount + msg.fee
        seq = self._enqueue(user.user_address, user.settle_address, msg.amount, msg.fee)
        self.try_build_settlement()
        return seq

    def _enqueue(self, user_address: bytes, settle_address: bytes, amount: int, fee: int, is_host: bool = False) -> int:
        seq = self._next_enqueue_seq
        self._next_enqueue_seq += 1
        request = SettleRequest(user_address, settle_address, amount, fee, seq, is_host)
        bisect.insort(self.queue, request, key=queue_order)
        self.queue_gain += max(0, fee - FORMULA_OUTPUT_BYTES * self.estimator.fee_avg)
        return seq

    # ------------------------------------------------------------------
    # settlement planning

    def _uncovered(self, outputs: int) -> int:
        """What a spend-all transaction with `outputs` outputs costs beyond
        the owned deposits' fares and the carried reserve: the part request
        fees, or at termination the host, must pay. Each further output adds
        `FORMULA_OUTPUT_BYTES * fee_avg`."""
        return formula_size(len(self.owned), outputs) * self.estimator.fee_avg - self.fares - self.fee_reserve

    def try_build_settlement(self) -> SettlementPlan | None:
        """Greedy spend-all settlement: pick the largest fee-sorted prefix of
        the queue whose request fees pay what the deposit fares and the
        carried reserve leave uncovered of the formula transaction fee. The
        plan's inputs are left unsigned, for `sign_plan`.

        A prefix is feasible when its slacks, `fee - per_output` each, sum to
        `base`. Slacks never grow along the fee-sorted queue, so the best
        prefix sums the positive ones (`queue_gain`), else is the first
        request alone; below `base`, only termination scans the queue."""
        if self.plan is not None or not self.owned or not self.queue:
            return None
        fee_avg = self.estimator.fee_avg
        per_output = FORMULA_OUTPUT_BYTES * fee_avg
        base = self._uncovered(1)  # the inputs, base bytes and the leftover output
        if (self.queue_gain or self.queue[0].fee - per_output) < base and not self.terminating:
            return None
        fees = queued = taken = n = 0
        for i, request in enumerate(self.queue, 1):
            fees += request.fee
            queued += 0 if request.is_host else request.total  # user value, as `s_amount`
            if fees >= base + i * per_output:
                n, taken = i, queued
        host_subsidy = 0
        if n == 0:
            if not self.terminating:
                return None
            # termination must drain every balance: the host covers the
            # shortfall from its confirmed fees to buy the confirmations
            n, taken = len(self.queue), queued
            host_subsidy = base + n * per_output - fees
            if host_subsidy > self.host_balance:
                return None
            self.host_balance -= host_subsidy

        selected = self.queue[:n]
        tx_fee = formula_size(len(self.owned), n + 1) * fee_avg
        total_in = self.owned_value
        b_total = self.balances_total + queued
        rf_delta = self.rf_pending
        if b_total:
            rf_delta = min(rf_delta, rf_delta * taken // b_total)

        # the leftover output, last, goes to a fresh manager key
        manager_address = self._new_manager_key()
        amounts = sum(r.amount for r in selected)

        tx = Transaction(
            [TxInput(op[0], op[1], d.value) for op, d in self.owned.items()],
            [TxOutput(r.amount, r.settle_address) for r in selected]
            + [TxOutput(total_in - amounts - tx_fee, manager_address)],
        )

        self.queue = self.queue[n:]
        self.queue_gain = 0  # the best prefix, so every positive slack, is taken
        self.rf_pending -= rf_delta
        self.plan = SettlementPlan(tx, selected, b_total, rf_delta, host_subsidy)
        return self.plan

    def sign_plan(self, deadline: float | None = None) -> bool:
        """Sign the outstanding plan's unsigned inputs in input order: at
        least one, then more until `time.perf_counter()` passes `deadline`
        (no deadline: all of them). True once nothing is left to sign."""
        plan = self.plan
        if plan is None or plan.signed:
            return True
        inputs = plan.transaction.inputs
        while True:
            txin = inputs[plan.next_unsigned]
            sk, pk = self.manager_keys[self.owned[txin.outpoint].lock_address]
            txin.unlock = make_unlock(self.suite.onchain, sk, pk, plan.sighash)
            plan.next_unsigned += 1
            if plan.signed:
                return True
            if deadline is not None and time.perf_counter() > deadline:
                return False

    def _confirm_plan(self, height: int, txid: bytes) -> None:
        """Confirm the plan as mined under `txid`, the block's: whoever
        broadcast the plan may have reshaped its signatures, and so its txid."""
        plan = self.plan
        assert plan is not None
        # nothing moves the reserve while a plan is outstanding, so it gains
        # exactly what the plan collected beyond its transaction fee
        spent = [self.owned.pop(outpoint) for outpoint in plan.input_outpoints]
        fares = sum(d.fare_precollected for d in spent)
        self.owned_value -= sum(d.value for d in spent)
        self.fares -= fares
        leftover = plan.transaction.outputs[-1]
        vout = plan.tx_outputs - 1
        self._own(OwnedDeposit(txid, vout, leftover.value, 0, height, leftover.lock_address))
        self.fee_reserve += fares + sum(r.fee for r in plan.selected) + plan.host_subsidy - plan.tx_fee
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

    def insert_block(self, msg: wire.InsertBlock) -> dict:
        chain = self._require_init()
        try:
            block = Block.deserialize(msg.block_bytes)
        except MalformedFrame as exc:
            raise InvalidBlock(f"undecodable block: {exc}")
        header_hash = block.header.hash()
        self._verify_host(wire.InsertBlock.signing_digest_for(header_hash), msg.host_signature)
        if block.header.prev_hash != chain.tip_hash:
            raise NotOnTip(f"prev {block.header.prev_hash.hex()[:16]}")
        txids, sample = admit_block(block)
        # supply bounded as on a real chain: no balance or plan output passes a u64
        credits = sum(out.value for tx in block.txs for out in tx.outputs if out.lock_address in self.pending_deposits)
        if credits + self.owned_value > MAX_MONEY:
            raise InvalidBlock("credits over the money supply")
        try:
            chain.append(block.header)
        except BlockRejected as exc:
            raise InvalidBlock(exc.code)

        height = chain.tip_height
        if sample is not None:
            self._add_fee_sample(sample)

        # pending deposits are added in expiry order, tip + 100 with a tip
        # that only grows, so the expired ones come first
        expired = list(itertools.takewhile(lambda p: height > p.expiry_height, self.pending_deposits.values()))
        for pending in expired:
            del self.pending_deposits[pending.manager_address]

        credited = 0
        confirmed = False
        fee_avg = self.estimator.fee_avg
        for tx, txid in zip(block.txs, txids):
            # the plan spends every deposit owned when it was built, its
            # first input included; only such a transaction can carry its
            # sighash
            plan = self.plan
            if (plan is not None and tx.inputs and tx.inputs[0].outpoint in self.owned
                    and tx.sighash() == plan.sighash):
                self._confirm_plan(height, txid)
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
                self._own(OwnedDeposit(txid, idx, txout.value, fare, height, txout.lock_address))
                user = self.users[pending.beneficiary]
                user.balance += increase
                self.balances_total += increase
                if user.max_source_block is None or user.max_source_block < height:
                    user.max_source_block = height
                credited += 1
                del self.pending_deposits[txout.lock_address]

        outstanding = self.plan
        if self.terminating:
            self._termination_progress()
        else:
            self.try_build_settlement()
        return {
            "height": height,
            "credited": credited,
            "expired": len(expired),
            "confirmed_plan": int(confirmed),
            "plan_built": int(self.plan is not outstanding),
        }

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
        min_fee = FORMULA_OUTPUT_BYTES * self.estimator.fee_avg
        fees = [min(min_fee, u.balance - 1) for u in holders]
        need = self._uncovered(len(self.queue) + len(holders) + 1) - sum(r.fee for r in self.queue) - sum(fees)
        for user, fee in zip(holders, fees):
            # the first balances that can spare it pay what is still needed
            extra = max(0, min(user.balance - 1 - fee, need))
            need -= extra
            self._enqueue(user.user_address, user.settle_address, user.balance - fee - extra, fee + extra)
            self.balances_total -= user.balance
            user.balance = 0
        return len(holders)

    def _maybe_host_payout(self) -> None:
        """Once every unit of user value is settled and confirmed, pay the
        host's withdrawable fees to its settle address. The fee is sized so
        the payout plan is feasible on its own; a balance too small to carry
        its own transaction is forfeited into the fee reserve instead."""
        if self.host_balance <= 0 or not self._users_settled():
            return
        fee = max(FORMULA_OUTPUT_BYTES * self.estimator.fee_avg, self._uncovered(2))
        if self.host_balance <= fee:
            self.fee_reserve += self.host_balance
            self.host_balance = 0
            return
        amount = self.host_balance - fee
        self.host_balance = 0
        self._enqueue(b"\x00" * ADDRESS_SIZE, self.config.host_settle_address, amount, fee, is_host=True)

    def _termination_progress(self) -> int:
        # the payout waits for an empty queue and no outstanding plan, so
        # one build after it settles the users' requests or the payout
        enqueued = self._terminal_sweep_users()
        self._maybe_host_payout()
        self.try_build_settlement()
        return enqueued

    def _users_settled(self) -> bool:
        """Every user balance is settled and confirmed, with the routing fees
        it carried: nothing is held, queued, in flight or pending."""
        return (
            self.plan is None
            and not self.queue
            and self.rf_pending == 0
            and self.balances_total == 0
        )

    @property
    def termination_complete(self) -> bool:
        return self.terminating and self.host_balance == 0 and self._users_settled()

    # ------------------------------------------------------------------
    # queries

    def query_latest_block(self) -> dict:
        chain = self._require_init()
        return {
            "height": chain.tip_height,
            "hash": chain.tip_hash,
            "cumulative_work": min(chain.cumulative_work, (1 << 64) - 1),
        }

    def query_user(self, msg: wire.QueryUser, session_id: bytes) -> dict:
        """A user's own state, to a query signed for this session only."""
        user = self.users.get(msg.user_address)
        if user is None:
            raise UnknownUser(msg.user_address.hex())
        digest = msg.signing_digest(session_id)
        if self.query_proofs.get(digest) != msg.signature:
            if not self.suite.auth.verify(user.public_key, digest, msg.signature):
                raise AuthFailure("query not bound to this session")
            if len(self.query_proofs) >= QUERY_PROOFS_KEPT:
                self.query_proofs.clear()
            self.query_proofs[digest] = msg.signature
        return {
            "address": user.user_address,
            "nonce": user.nonce,
            "balance": user.balance,
            "max_source_block": user.max_source_block,
            "boundary_block": user.boundary_block,
            "settle_address": user.settle_address,
        }

    def get_settlement(self) -> dict:
        """The outstanding plan, once it is signed: before then there is
        nothing the host could broadcast."""
        plan = self.plan
        if plan is None or not plan.signed:
            return {"present": 0}
        return {
            "present": 1,
            "tx": plan.transaction.serialize(),
            "tx_fee": plan.tx_fee,
            "tx_size": plan.tx_size,
            "tx_inputs": plan.tx_inputs,
            "tx_outputs": plan.tx_outputs,
            "s_amount": plan.s_amount,
            "b_total": plan.b_total,
            "rf_confirmed_on_confirm": plan.rf_confirmed_on_confirm,
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

    def _recount(self) -> dict:
        """Each running total, summed afresh from its table."""
        return {
            "owned_value": sum(d.value for d in self.owned.values()),
            "fares": sum(d.fare_precollected for d in self.owned.values()),
            "balances_total": sum(u.balance for u in self.users.values()),
            "queue_gain": gain(self.queue, self.estimator.fee_avg),
        }

    def conservation(self) -> dict:
        """Evaluate the ledger identity over a recount of every table; `ok`
        must hold after every operation, and needs each running total to
        equal its recount."""
        parts = self._recount()
        totals_ok = (all(getattr(self, name) == value for name, value in parts.items())
                     and self.estimator.total == sum(self.estimator.window))
        in_flight = 0
        if self.plan is not None:
            in_flight = (
                sum(r.total for r in self.plan.selected)
                + self.plan.rf_confirmed_on_confirm
                + self.plan.host_subsidy
            )
        parts.update(queued_value=sum(r.total for r in self.queue), in_flight=in_flight)
        owed = (
            parts["balances_total"]
            + self.host_balance
            + parts["queued_value"]
            + in_flight
            + self.rf_pending
            + self.fee_reserve
            + parts["fares"]
        )
        return {**parts, "owed": owed, "ok": parts["owned_value"] == owed and totals_ok}

    # ------------------------------------------------------------------
    # message dispatch (daemon entry point)

    def apply_request(self, req, session_id: bytes = b"\x00" * 8) -> dict:
        handler = _HANDLERS.get(type(req))
        if handler is None:
            raise UnknownType(f"unhandled request {type(req).__name__}")
        return handler(self, req, session_id)


# Each request kind the hub answers, mapped to its reply fields. An entry
# looks its hub method up when it runs, so a method replaced on the class
# (the benchmark's tracer does this) is the one called. `Snapshot` belongs
# to the front end (`client.HubFrontEnd`).
_HANDLERS = {
    wire.AddUser: lambda hub, req, sid: {"user_address": hub.add_user(req.public_key, req.settle_address)},
    wire.AddDeposit: lambda hub, req, sid: {"manager_address": hub.add_deposit(req)},
    wire.UpdateBoundary: lambda hub, req, sid: {"boundary_block": hub.update_boundary_block(req)},
    wire.Payment: lambda hub, req, sid: {"accepted": hub.multi_hop_payment(req)},
    wire.Settle: lambda hub, req, sid: {"enqueue_seq": hub.request_settlement(req)},
    wire.QueryLatestBlock: lambda hub, req, sid: hub.query_latest_block(),
    wire.QueryUser: lambda hub, req, sid: hub.query_user(req, sid),
    wire.QueryLedger: lambda hub, req, sid: hub.query_ledger(),
    wire.InsertBlock: lambda hub, req, sid: hub.insert_block(req),
    wire.GetSettlement: lambda hub, req, sid: hub.get_settlement(),
    wire.Terminate: lambda hub, req, sid: {"enqueued": hub.terminate(req)},
}
