"""Workloads of the routee benchmark.

Each workload is a closed loop: every caller of a routee hub (`RemoteHub`,
the CLI) blocks until its reply arrives, and a session forbids reordering.
The request stream is generated from the seed alone. The generator keeps its
own model of the hub (balances, nonces, settlement queue, plans), so it sends
only valid requests and knows every reply in advance; a reply that differs,
an error reply or a missing reply counts as failed and ends the timed phase.

Timed windows cover the hub side only: from the request frame handed in to
the reply frame received. Client-side signing, sealing, opening, block
mining and key generation stay outside every window.
"""

from __future__ import annotations

import array
import collections
import gc
import itertools
import json
import multiprocessing
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding

from routee import snapshot, wire
from routee.client import Keys, LocalHubEndpoint
from routee.crypto import SCHEMES, CryptoSuite, DeterministicRng
from routee.errors import RouteeError
from routee.headers import ChainParams
from routee.hub import Hub, HubConfig
from routee import lightclient
from routee.lightclient import NodeHeaderSource, choose_boundary
from routee.netio import FrameConn
from routee.session import ClientHandshake
from routee.simchain import SimNode
from routee.simchain_server import SimchainClient, SimchainServer
from routee.transactions import (
    FORMULA_INPUT_BYTES,
    FORMULA_OUTPUT_BYTES,
    Transaction,
    TxInput,
    TxOutput,
    formula_size,
    make_unlock,
)
from routee.wire import (
    FRAME_ENVELOPE,
    FRAME_HANDSHAKE_INIT,
    FRAME_HUB_INFO_REQ,
    decode_response,
    encode_request,
    pack_frame,
    unpack_frame,
)

from tracing import NO_RID

perf = time.perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Every block transaction pays exactly 1 sat per formula byte, so each fee
# sample is 1 and the hub's fee_avg stays 1 for the whole run.
FEE_AVG = 1
FARE = FORMULA_INPUT_BYTES * FEE_AVG
MIN_SETTLE_FEE = FORMULA_OUTPUT_BYTES * FEE_AVG
MIN_ROUTING_FEE = 1
BATCH1_SHARE = 0.9  # payments of one item; the rest carry 2 to BATCH_MAX
BATCH_MAX = 30
DEPOSIT_VALUE = 100_000  # each fresh deposit of a cycle
HOST_SETTLE = b"\x00" * 20

SLICES = 5
REPLY_TIMEOUT = 30.0  # seconds
MIN_TAIL_SAMPLES = 1000  # a p99 with at least ten samples beyond it

KINDS = ["payment", "settle", "query_user", "query_ledger", "add_deposit",
         "get_settlement", "insert_block"]
KIND_ID = {k: i for i, k in enumerate(KINDS)}


@dataclass(frozen=True)
class Spec:
    """Shape of one workload. Between the settlement steps of a cycle a
    request is a settle with p_settle, else a QueryUser with p_query_user,
    else a payment."""

    name: str
    crypto: str             # "fast-test" or "full"
    transport: str          # "local" (LocalHubEndpoint.handle_frame) or "tcp" (routee-hubd)
    payers: tuple[int, ...]  # payers owned by each connection; the last one is the host
    depositors: int         # users that receive the fresh deposits of each cycle
    receive_share: float    # share of users with a boundary block (can receive)
    p_settle: float
    p_query_user: float
    depth: int              # minimum-fee settles queued before the closing settle
    fund: int               # fresh deposits funded by the block that ends each cycle
    plan_in_insert: bool    # the closing settle queues behind the outstanding plan, and
                            # the next plan builds inside the InsertBlock that confirms it
    ledger_every: int       # QueryLedger after this many settles (0: once per cycle)
    read_kind: str          # request kind behind read_p50_us
    reconnect_every: int
    setup_reps: int
    restart_reps: int
    presign_per_s: int = 0  # requests signed ahead per second of run (0: sign as needed)


WORKLOADS = {
    # hub hot path alone: codec, AES-GCM and ledger apply
    "pay-local": Spec(
        "pay-local", "fast-test", "local", payers=(1000,), depositors=0, receive_share=0.9,
        p_settle=0.02, p_query_user=0.10, depth=5, fund=0, plan_in_insert=False, ledger_every=0,
        read_kind="query_user", reconnect_every=2000, setup_reps=10, restart_reps=60,
    ),
    # deployed shape: RSA-3072 auth, sockets, two handler threads, ECDSA plans
    "hubd-full": Spec(
        "hubd-full", "full", "tcp", payers=(3, 3), depositors=1, receive_share=1.0,
        p_settle=0.20, p_query_user=0.30, depth=80, fund=2, plan_in_insert=True, ledger_every=0,
        read_kind="query_user", reconnect_every=250, setup_reps=11, restart_reps=5,
        presign_per_s=5000,
    ),
    # settlement queue growth: O(queue + deposits) per settle request
    "settle-ramp": Spec(
        "settle-ramp", "fast-test", "local", payers=(200,), depositors=50, receive_share=1.0,
        p_settle=0.93, p_query_user=0.15, depth=2000, fund=100, plan_in_insert=False, ledger_every=50,
        read_kind="query_ledger", reconnect_every=500, setup_reps=10, restart_reps=60,
    ),
}


class Mismatch(Exception):
    """A reply differed from the generator's model, or a check failed."""


# ----------------------------------------------------------------------
# client-side signing (load generation)

def _rsa_sign(secret: bytes, digest: bytes, loaded: dict) -> bytes:
    key = loaded.get(secret)
    if key is None:
        key = loaded[secret] = serialization.load_der_private_key(secret, None)
    return key.sign(digest, padding.PKCS1v15(), hashes.SHA256())


_worker_secrets: list[bytes] = []
_worker_keys: dict[bytes, object] = {}


def _worker_init(secrets: list[bytes], cpus: set[int]) -> None:
    os.sched_setaffinity(0, cpus)
    _worker_secrets[:] = secrets


def _sign_batch(batch: list[tuple[int, bytes]]) -> list[bytes]:
    """Signing-pool worker: (secret index, digest) pairs to signatures."""
    return [_rsa_sign(_worker_secrets[i], digest, _worker_keys) for i, digest in batch]


class Signer:
    """Signs with keys parsed once. `RsaScheme.sign` re-parses and validates
    the 3,072-bit key on every call (~178 ms), so the benchmark loads each
    key once instead (~1.5 ms per signature). While `deferred` is a list,
    request signatures are collected there and made in bulk by
    `sign_deferred`."""

    def __init__(self, crypto: str, seed: int):
        self.scheme = CryptoSuite.from_mode(crypto).auth
        self._rng = DeterministicRng(seed ^ 0x5EED)
        self._loaded: dict[bytes, object] = {}
        self.deferred: list | None = None

    def keys(self) -> Keys:
        return Keys.generate(self.scheme, self._rng)

    def sign(self, keys: Keys, digest: bytes) -> bytes:
        if self.scheme.name == "rsa3072":
            return _rsa_sign(keys.secret, digest, self._loaded)
        return self.scheme.sign(keys.secret, digest)

    def sign_request(self, msg, keys: Keys) -> None:
        if self.deferred is None:
            msg.signature = self.sign(keys, msg.signing_digest())
        else:
            self.deferred.append((msg, keys, msg.signing_digest()))

    def sign_deferred(self, cpus: set[int]) -> None:
        """Sign every deferred request, RSA ones in a pool of one worker
        process per CPU, then sign as requests come again."""
        pending, self.deferred = self.deferred, None
        if self.scheme.name != "rsa3072" or len(cpus) < 2:
            for msg, keys, digest in pending:
                msg.signature = self.sign(keys, digest)
            return
        secrets = sorted({keys.secret for _, keys, _ in pending})
        index = {secret: i for i, secret in enumerate(secrets)}
        chunks = [pending[i:i + 500] for i in range(0, len(pending), 500)]
        tasks = [[(index[keys.secret], digest) for _, keys, digest in chunk] for chunk in chunks]
        # fork, not spawn: a spawn pool starts multiprocessing's resource
        # tracker, a process that outlives the pool and is never waited for
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(len(cpus), mp_context=context, initializer=_worker_init,
                                 initargs=(secrets, cpus)) as pool:
            for chunk, signatures in zip(chunks, pool.map(_sign_batch, tasks)):
                for (msg, _, _), signature in zip(chunk, signatures):
                    msg.signature = signature


@dataclass(eq=False)
class User:
    keys: Keys
    address: bytes
    receives: bool


# ----------------------------------------------------------------------
# the generator's model of the settlement side of the hub

class HubModel:
    """Owned deposits (their fares, in the hub's order), the queue, the
    outstanding plan and the fee reserve, as the hub's greedy planner sees
    them. Every settle fee is at least the minimum, so the slack of a queue
    prefix never shrinks as the prefix grows: a plan is feasible exactly when
    the whole queue is, and then it takes the whole queue."""

    def __init__(self, owned_fares: list[int], height: int):
        self.owned = list(owned_fares)
        self.queue_n = 0
        self.queue_fees = 0
        self.plan: tuple[int, int, int, int] | None = None  # inputs, outputs, tx_fee, collected
        self.plan_cycle = -1
        self.reserve = 0
        self.next_seq = 0
        self.height = height
        self.plans_confirmed = 0
        self.cycle = 0

    def _shortfall(self, owned: list[int], reserve: int, queue_n: int, queue_fees: int) -> int:
        return formula_size(len(owned), queue_n + 1) * FEE_AVG - sum(owned) - queue_fees - reserve

    def try_build(self) -> bool:
        if self.plan is not None or not self.owned or not self.queue_n:
            return False
        short = self._shortfall(self.owned, self.reserve, self.queue_n, self.queue_fees)
        if short > 0:
            return False
        tx_fee = formula_size(len(self.owned), self.queue_n + 1) * FEE_AVG
        self.plan = (len(self.owned), self.queue_n + 1, tx_fee, tx_fee - short)
        self.plan_cycle = self.cycle
        self.queue_n = self.queue_fees = 0
        return True

    def settle(self, fee: int) -> tuple[int, bool]:
        seq = self.next_seq
        self.next_seq += 1
        self.queue_n += 1
        self.queue_fees += fee
        return seq, self.try_build()

    def closing_fee(self, fund: int) -> int:
        """Fee that makes the queue plus this request feasible at the next
        attempt: now, or, with a plan outstanding, in the next InsertBlock
        after it confirms that plan and credits `fund` deposits."""
        owned, reserve = self.owned, self.reserve
        if self.plan is not None:
            n_in, _, tx_fee, collected = self.plan
            owned = owned[n_in:] + [FARE] * fund + [0]
            reserve = collected - tx_fee
        short = self._shortfall(owned, reserve, self.queue_n + 1, self.queue_fees)
        return max(MIN_SETTLE_FEE, short)

    def insert(self, fund: int, confirm: bool) -> tuple[dict, bool]:
        self.height += 1
        self.owned += [FARE] * fund
        if confirm:
            n_in, _, tx_fee, collected = self.plan
            self.owned = self.owned[n_in:] + [0]  # the leftover carries no fare
            self.reserve = collected - tx_fee
            self.plan = None
            self.plans_confirmed += 1
        built = self.try_build()
        expect = {"height": self.height, "credited": fund, "expired": 0,
                  "confirmed_plan": int(confirm), "plan_built": int(built)}
        return expect, built


@dataclass(eq=False)
class Action:
    kind: str
    user: User | None = None
    msg: object = None        # the signed request, when it can be signed ahead
    expect: dict = field(default_factory=dict)
    builds_plan: bool = False
    cycle_start: bool = False
    debits: int = 0
    credits: tuple = ()       # (receiver, amount) pairs of a payment
    fund: int = 0
    confirm: bool = False
    after: tuple = ()         # host model (queued, plans confirmed, plan outstanding) after it


def generate(spec: Spec, rng: random.Random, signer: Signer, senders: list[User],
             depositors: list[User], receivers: list[User], budgets: dict,
             nonces: dict, model: HubModel | None):
    """Endless request stream of one connection. With a model it is the host
    connection and runs settlement cycles; otherwise it sends payments and
    reads only, with a stop point every 100 requests."""
    settlers = senders + depositors

    def payment() -> Action:
        sender = rng.choice(senders)
        size = 1 if rng.random() < BATCH1_SHARE else rng.randint(2, BATCH_MAX)
        items = []
        for _ in range(size):
            receiver = rng.choice(receivers)
            while receiver is sender:
                receiver = rng.choice(receivers)
            items.append(wire.PaymentItem(receiver.address, rng.randint(1, 500),
                                          rng.randint(MIN_ROUTING_FEE, 5)))
        total = sum(i.amount + i.routing_fee for i in items)
        return signed(Action("payment", sender, wire.Payment(sender.address, 0, items),
                             {"accepted": size}, debits=total,
                             credits=tuple((i.receiver, i.amount) for i in items)))

    def settle(fee: int) -> Action:
        user = rng.choice(settlers)
        amount = rng.randint(1, 1000)
        seq, built = model.settle(fee)
        return signed(Action("settle", user, wire.Settle(user.address, 0, amount, fee),
                             {"enqueue_seq": seq}, builds_plan=built, debits=amount + fee))

    def signed(action: Action) -> Action:
        user = action.user
        if budgets[user] < action.debits:
            raise RuntimeError(f"generator budget exhausted for {user.address.hex()}")
        budgets[user] -= action.debits
        action.msg.nonce = nonces[user]
        nonces[user] += 1
        signer.sign_request(action.msg, user.keys)
        return action

    def query_user() -> Action:
        return Action("query_user", rng.choice(settlers))

    def query_ledger() -> Action:
        return Action("query_ledger", expect={
            "conservation_ok": 1, "fee_avg": FEE_AVG, "queued": model.queue_n,
            "plan_outstanding": int(model.plan is not None),
            "plans_confirmed": model.plans_confirmed})

    def block(fund: int, confirm: bool):
        for i in range(fund):
            user = depositors[i % len(depositors)]
            msg = wire.AddDeposit(user.address, 0)
            yield signed(Action("add_deposit", user, msg))
        if confirm:
            n_in, n_out, tx_fee, _ = model.plan
            yield Action("get_settlement", expect={"present": 1, "tx_inputs": n_in,
                                                   "tx_outputs": n_out, "tx_fee": tx_fee})
        expect, built = model.insert(fund, confirm)
        for i in range(fund):
            budgets[depositors[i % len(depositors)]] += DEPOSIT_VALUE - FARE
        yield Action("insert_block", expect=expect, builds_plan=built, fund=fund, confirm=confirm)

    def body_request() -> Action:
        if rng.random() < spec.p_query_user:
            return query_user()
        return payment()

    def cycle():
        """Minimum-fee settles among the other requests, then the closing
        settle, then the block that funds fresh deposits and confirms."""
        model.cycle += 1
        settles = 0
        while settles < spec.depth:
            if rng.random() < spec.p_settle:
                yield settle(MIN_SETTLE_FEE)
                settles += 1
                if spec.ledger_every and settles % spec.ledger_every == 0:
                    yield query_ledger()
            else:
                yield body_request()
        yield settle(model.closing_fee(spec.fund))
        # with plan_in_insert, confirm only a plan built in an earlier cycle,
        # so that this cycle's queue is planned inside the InsertBlock
        confirm = model.plan is not None and (
            not spec.plan_in_insert or model.plan_cycle < model.cycle)
        yield from block(spec.fund, confirm)
        if not spec.ledger_every:
            yield query_ledger()

    while True:
        actions = cycle() if model is not None else (body_request() for _ in range(100))
        for i, action in enumerate(actions):
            action.cycle_start = i == 0
            if model is not None:
                action.after = (model.queue_n, model.plans_confirmed, int(model.plan is not None))
            yield action


# ----------------------------------------------------------------------
# transports

class LocalLink:
    """Frames straight into `LocalHubEndpoint.handle_frame`."""

    ordinal = itertools.count(1)

    def __init__(self, endpoint: LocalHubEndpoint, rng: DeterministicRng, tracer=None):
        self.endpoint = endpoint
        self.rng = rng
        self.buf = tracer.buf() if tracer else None
        self.session = None

    def _handle(self, frame: bytes, rid: tuple[int, int]) -> tuple[bytes | None, float]:
        buf = self.buf
        if buf is not None:
            buf.on, buf.rid = True, rid
        t0 = perf()
        out = self.endpoint.handle_frame(frame)
        t1 = perf()
        if buf is not None:
            buf.on, buf.rid = False, NO_RID
        return out, t1 - t0

    def connect(self) -> float:
        t0 = perf()
        out, _ = self._handle(pack_frame(FRAME_HUB_INFO_REQ, b""), NO_RID)
        info = decode_response(unpack_frame(out)[1])
        handshake = ClientHandshake(info["static_public"], info["measurement"], rng=self.rng)
        out, _ = self._handle(pack_frame(FRAME_HANDSHAKE_INIT, handshake.init_payload()), NO_RID)
        self.session = handshake.complete(unpack_frame(out)[1])
        return perf() - t0

    def start(self, msg) -> None:
        frame = pack_frame(FRAME_ENVELOPE, self.session.seal(encode_request(msg)))
        rid = (next(self.ordinal), 0)
        out, latency = self._handle(frame, rid)
        self._done = latency, rid, out

    def ready(self) -> bool:
        return True

    def finish(self) -> tuple[float, tuple[int, int], object]:
        latency, rid, out = self._done
        if out is None:
            return latency, rid, Mismatch("no reply")
        try:
            return latency, rid, decode_response(self.session.open(unpack_frame(out)[1]))
        except RouteeError as exc:
            return latency, rid, exc

    def request(self, msg) -> tuple[float, tuple[int, int], object]:
        self.start(msg)
        return self.finish()

    def close(self) -> None:
        self.session = None


class TcpLink:
    """One wallet connection to routee-hubd over loopback TCP. The window
    runs from `FrameConn.send` of the request to `FrameConn.recv` of the
    reply. In between the load loop busy-polls the socket rather than
    sleeping in `recv`: a sleeping vCPU must be woken for every reply, and
    on a shared virtual machine that wake-up alone takes up to milliseconds."""

    def __init__(self, port: int):
        self.port = port
        self.conn: FrameConn | None = None
        self.session = None

    def _roundtrip(self, frame_type: int, payload: bytes) -> tuple[int, bytes]:
        self.conn.send(frame_type, payload)
        if not self.wait():
            raise Mismatch(f"no reply to frame type {frame_type}")
        return self.conn.recv()

    def connect(self) -> float:
        t0 = perf()
        self.conn = FrameConn("127.0.0.1", self.port)
        _, body = self._roundtrip(FRAME_HUB_INFO_REQ, b"")
        info = decode_response(body)
        handshake = ClientHandshake(info["static_public"], info["measurement"])
        _, ack = self._roundtrip(FRAME_HANDSHAKE_INIT, handshake.init_payload())
        self.session = handshake.complete(ack)
        return perf() - t0

    def start(self, msg) -> None:
        session = self.session
        self._rid = (int.from_bytes(session.session_id, "big", signed=True), session.send_seq)
        envelope = session.seal(encode_request(msg))
        self._t0 = perf()
        self.conn.send(FRAME_ENVELOPE, envelope)

    def ready(self) -> bool:
        return bool(select.select([self.conn.sock], [], [], 0)[0])

    def wait(self) -> bool:
        """Busy-poll until the reply is readable; False after REPLY_TIMEOUT."""
        give_up = perf() + REPLY_TIMEOUT
        while not self.ready():
            if perf() > give_up:
                return False
        return True

    def finish(self) -> tuple[float, tuple[int, int], object]:
        rid = self._rid
        try:
            frame_type, reply = self.conn.recv()
        except (ConnectionError, OSError) as exc:
            return perf() - self._t0, rid, Mismatch(f"no reply: {exc}")
        latency = perf() - self._t0
        if frame_type != FRAME_ENVELOPE:
            return latency, rid, Mismatch(f"reply frame type {frame_type}")
        try:
            return latency, rid, decode_response(self.session.open(reply))
        except RouteeError as exc:
            return latency, rid, exc

    def request(self, msg) -> tuple[float, tuple[int, int], object]:
        self.start(msg)
        if not self.wait():
            return perf() - self._t0, self._rid, Mismatch("no reply")
        return self.finish()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# ----------------------------------------------------------------------
# one run of a workload

class Records:
    """Per-request outcomes of one connection's timed phase."""

    def __init__(self):
        self.kind = array.array("b")
        self.latency = array.array("d")
        self.built = array.array("b")
        self.rid_a = array.array("q")
        self.rid_b = array.array("q")
        self.done_at = array.array("d")
        self.connects: list[float] = []
        self.sent = 0

    def rids(self):
        return zip(self.rid_a, self.rid_b)


class Conn:
    """State of one connection of the timed phase."""

    def __init__(self, stream, host: bool):
        self.stream = stream
        self.host = host
        self.records = Records()
        self.link = None
        self.action: Action | None = None  # in flight
        self.done = False
        self.query_sigs: dict[User, bytes] = {}
        self.pending: list[tuple[User, bytes]] = []  # funded by the next block
        self.funded: list[tuple[User, bytes]] = []
        self.plan_tx: Transaction | None = None


class Run:
    def __init__(self, spec: Spec, seed: int, seconds: float, tracer=None, trace_dir: str | None = None,
                 presign: list[int] | None = None):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.trace_dir = trace_dir
        self.signer = Signer(spec.crypto, seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: collections.Counter = collections.Counter()
        self.daemons: list[subprocess.Popen] = []
        self.trace_files: list[str] = []
        self.presign = presign  # requests to sign ahead per connection
        self.presigned: list[int] = []
        self.presign_s = 0.0
        self.setup_times: list[float] = []
        self.restart_times: list[float] = []
        self.snapshot_bytes = 0
        self.records: list[Records] = []
        self.phase_s = 0.0
        self.phase_t0 = 0.0
        scheme = SCHEMES["ecdsa"] if spec.crypto == "full" else SCHEMES["fast"]
        # the load process stays on one CPU; over TCP the daemon gets another
        self.all_cpus = os.sched_getaffinity(0)
        self.cpus = sorted(self.all_cpus)[:2]
        self.node = SimNode(ChainParams.regtest(), scheme=scheme, seed=seed)
        self.node.mine_blocks(2)
        self.params = self.node.params

    # --- shared helpers ---

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        raise Mismatch(what)

    def send(self, link, msg, kind: str, expect: dict | None = None) -> dict:
        """One request outside the timed phase."""
        self.attempted += 1
        return self.check(kind, expect, link.request(msg)[2])

    def record(self, records: Records, action: "Action", outcome) -> dict:
        """One request of the timed phase."""
        latency, rid, reply = outcome
        self.attempted += 1
        records.kind.append(KIND_ID[action.kind])
        records.latency.append(latency)
        records.built.append(action.builds_plan)
        records.rid_a.append(rid[0])
        records.rid_b.append(rid[1])
        records.done_at.append(perf())
        return self.check(action.kind, action.expect, reply)

    def check(self, kind: str, expect: dict | None, reply) -> dict:
        if not isinstance(reply, dict):
            self.fail(f"{kind}: {reply}")
        for key, value in (expect or {}).items():
            if reply.get(key) != value:
                self.fail(f"{kind}: {key}={reply.get(key)!r}, expected {value!r}")
        return reply

    def funding_tx(self, addresses: list[bytes], value: int) -> Transaction:
        wallet = self.node.wallet
        op, coin = max(((op, out) for op, out in wallet.utxos.items() if op not in wallet.pending_spends),
                       key=lambda item: item[1].value)
        fee = formula_size(1, len(addresses) + 1) * FEE_AVG
        change = coin.value - value * len(addresses) - fee
        tx = Transaction([TxInput(op[0], op[1], coin.value)],
                         [TxOutput(value, a) for a in addresses] + [TxOutput(change, wallet.fresh_address())])
        sk, pk = wallet.keys[coin.lock_address]
        tx.inputs[0].unlock = make_unlock(self.node.scheme, sk, pk, tx.sighash())
        wallet.pending_spends.add(op)
        return tx

    def mine_insert(self, txs: list[Transaction]) -> wire.InsertBlock:
        """Mine a block on the benchmark's own chain (validating every
        transaction, plans included) and host-sign its InsertBlock."""
        try:
            for tx in txs:
                self.node.submit_tx(tx)
        except RouteeError as exc:
            self.fail(f"chain rejected a transaction: {exc}")
        block = self.node.mine_block()
        msg = wire.InsertBlock(block.serialize())
        msg.host_signature = self.signer.sign(
            self.host, wire.InsertBlock.signing_digest_for(block.header.hash()))
        return msg

    def traced_call(self, fn, *args):
        """Run a hub-side call outside any request with tracing switched on."""
        buf = self.tracer.buf() if self.tracer else None
        if buf is not None:
            buf.on = True
        try:
            return fn(*args)
        finally:
            if buf is not None:
                buf.on = False

    # --- set-up ---

    def make_users(self) -> None:
        spec = self.spec
        self.host = self.signer.keys()
        self.groups: list[list[User]] = []
        n_total = sum(spec.payers) + spec.depositors
        index = 0
        for count in spec.payers:
            group = []
            for _ in range(count):
                group.append(self.new_user(index < int(n_total * spec.receive_share)))
                index += 1
            self.groups.append(group)
        self.depositors = [self.new_user(True) for _ in range(spec.depositors)]
        self.users = [u for g in self.groups for u in g] + self.depositors
        self.by_address = {u.address: u for u in self.users}
        self.initial_value = min(10**8, 4 * 10**9 // len(self.users))

    def new_user(self, receives: bool) -> User:
        keys = self.signer.keys()
        return User(keys, keys.address, receives)

    def register_and_fund(self, link, source) -> None:
        """Register every user, fund each with one deposit, and give the
        receivers a boundary block chosen by the light client."""
        for u in self.users:
            self.send(link, wire.AddUser(u.keys.public, u.address), "add_user",
                      {"user_address": u.address})
        managers = []
        for u, msg in zip(self.users, self.setup_deposits):
            managers.append(self.send(link, msg, "add_deposit")["manager_address"])
        t0 = perf()
        funding = self.funding_tx(managers, self.initial_value)
        self.excluded += perf() - t0
        self.send(link, self.timed_mine([funding]), "insert_block", {"credited": len(managers)})
        self.send(link, self.timed_mine([]), "insert_block", {"credited": 0})
        store = self.traced_call(lightclient.sync_headers, [("chain", source)], self.params)
        height, block_hash = choose_boundary(store, 1)
        for u in self.users:
            if u.receives:
                t0 = perf()
                msg = wire.UpdateBoundary(u.address, 1, height, block_hash)
                msg.signature = self.signer.sign(u.keys, msg.signing_digest())
                self.excluded += perf() - t0
                self.send(link, msg, "update_boundary", {"boundary_block": height})
        self.fund_height = height

    def timed_mine(self, txs: list[Transaction]) -> wire.InsertBlock:
        t0 = perf()
        msg = self.mine_insert(txs)
        self.excluded += perf() - t0
        return msg

    def presign_setup_deposits(self) -> None:
        self.setup_deposits = []
        for u in self.users:
            msg = wire.AddDeposit(u.address, 0)
            msg.signature = self.signer.sign(u.keys, msg.signing_digest())
            self.setup_deposits.append(msg)

    def setup(self):
        """Set up `setup_reps` times, each from nothing; keep the last one."""
        self.make_users()
        self.presign_setup_deposits()
        if self.spec.transport == "tcp":
            self.chain_server = SimchainServer(self.node)
            self.chain_server.start()
        try:
            for rep in range(self.spec.setup_reps):
                if rep and self.spec.transport == "tcp":
                    self.stop_daemon()
                self.excluded = 0.0
                t0 = perf()
                link = self.start_hub(rep)
                link.connect()
                source = (SimchainClient("127.0.0.1", self.chain_server.port)
                          if self.spec.transport == "tcp" else NodeHeaderSource(self.node))
                self.register_and_fund(link, source)
                self.setup_times.append(perf() - t0 - self.excluded)
                link.close()
        finally:
            if self.spec.transport == "tcp":
                self.chain_server.stop()

        # the generator's view of the hub after set-up
        self.nonces = {u: 2 if u.receives else 1 for u in self.users}
        self.truth_balance = {u: self.initial_value - FARE for u in self.users}
        self.truth_nonce = dict(self.nonces)
        self.model = HubModel([FARE] * len(self.users), self.fund_height + 1)

    def start_hub(self, rep: int):
        if self.spec.transport == "local":
            suite = CryptoSuite.from_mode(self.spec.crypto)
            config = HubConfig(self.host.public, HOST_SETTLE, MIN_ROUTING_FEE, self.params, suite,
                               rng_seed=self.seed)
            self.hub = Hub(config)
            headers = [b.header for b in self.node.blocks]
            self.hub.initialize(headers[0], 0, headers[1:], list(self.node.blocks))
            self.endpoint = LocalHubEndpoint(self.hub, session_rng=DeterministicRng(self.seed + rep))
            self.link_rng = DeterministicRng((self.seed ^ 0xC11E) + rep)
            return self.new_link()
        self.snapshot_path = os.path.join(self.work_dir, f"hub-{rep}.snap")
        self.port = self.spawn_daemon(auto_init=True)
        return TcpLink(self.port)

    def new_link(self):
        if self.spec.transport == "local":
            return LocalLink(self.endpoint, self.link_rng, self.tracer)
        return TcpLink(self.port)

    # --- daemon process ---

    def spawn_daemon(self, auto_init: bool) -> int:
        cmd = [sys.executable, "-u", os.path.join(BENCH_DIR, "hubd.py")]
        if len(self.cpus) > 1:
            cmd += ["--cpu", str(self.cpus[1])]
        if self.trace_dir:
            path = os.path.join(self.trace_dir, f"daemon-{len(self.trace_files)}.pkl")
            self.trace_files.append(path)
            cmd += ["--trace-out", path]
        settings = {
            "crypto_mode": self.spec.crypto,
            "host_pubkey_hex": self.host.public.hex(),
            "min_routing_fee": MIN_ROUTING_FEE,
            "snapshot_path": self.snapshot_path,
            "listen_port": 0,
            "auto_init": int(auto_init),
        }
        if auto_init:
            settings["simchain_port"] = self.chain_server.port
        cmd.append("--json")
        for key, value in settings.items():
            cmd += ["--set", f"{key}={value}"]
        log = open(os.path.join(self.work_dir, f"daemon-{len(self.daemons)}.log"), "wb")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, cwd=ROOT)
        log.close()
        self.daemons.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        line = proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(f"routee-hubd did not start (exit {proc.poll()}); see {log.name}")
        status = json.loads(line)
        if not status.get("initialized"):
            raise RuntimeError(f"routee-hubd not initialized: {status}")
        return status["listening"]

    def stop_daemon(self) -> None:
        proc = self.daemons[-1]
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    def kill_all(self) -> None:
        for proc in self.daemons:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if not proc.stdout.closed:
                proc.stdout.close()

    # --- timed phase ---

    def streams(self):
        spec = self.spec
        receivers = [u for u in self.users if u.receives]
        budgets = dict(self.truth_balance)
        out = []
        for i, group in enumerate(self.groups):
            host = i == len(self.groups) - 1
            rng = random.Random(f"{self.seed}/{spec.name}/{i}")
            out.append(generate(spec, rng, self.signer, group, self.depositors if host else [],
                                receivers, budgets, self.nonces, self.model if host else None))
        if spec.presign_per_s:
            # sign ahead, outside every timed window and outside set-up time
            t0 = perf()
            counts = self.presign or [int(spec.presign_per_s * self.seconds / len(out)) + 1] * len(out)
            self.signer.deferred = []
            ahead = [list(itertools.islice(s, n)) for s, n in zip(out, counts)]
            self.signer.sign_deferred(self.all_cpus)
            self.presigned = [len(a) for a in ahead]
            self.presign_s = perf() - t0
            out = [itertools.chain(a, s) for a, s in zip(ahead, out)]
        return out

    def presign_exhausted(self) -> bool:
        """True when a connection ran past its signed-ahead requests, so that
        signing fell inside the timed phase (never in process)."""
        return any(r.sent > n for r, n in zip(self.records, self.presigned))

    def timed_phase(self) -> None:
        """One thread drives every connection: it keeps one request in
        flight per connection and busy-polls for the replies. Work that
        takes the load process a millisecond or more (mining, RSA signing,
        reconnecting) waits until no request is in flight, so that it never
        lands in another connection's timed window."""
        streams = self.streams()
        # In process the load generator shares the hub's heap, and its chain,
        # blocks and signed-ahead requests only grow. They are moved out of
        # the collector's sight here and after every block mined, so that
        # collections inside timed windows scan what the hub allocated since,
        # not what the benchmark keeps.
        gc.collect()
        gc.freeze()
        conns = [Conn(stream, i == len(streams) - 1) for i, stream in enumerate(streams)]
        self.records = [c.records for c in conns]
        for c in conns:
            c.link = self.new_link()
            c.records.connects.append(c.link.connect())
        t0 = self.phase_t0 = perf()
        deadline = t0 + self.seconds
        host = conns[-1]
        # In process the restart samples are spread over the phase: the
        # machine's speed moves within seconds, and samples taken back to
        # back at the end all see one moment of it.
        next_restart = None
        if self.spec.transport == "local":
            restart_every = self.seconds / self.spec.restart_reps
            next_restart = t0 + restart_every / 2
        try:
            while not all(c.done for c in conns):
                for c in conns:
                    if c.done or c.action is not None:
                        continue
                    if self.presigned and c.records.sent >= self.presigned[conns.index(c)]:
                        self.drain(conns)  # the stream signs as it goes from here on
                    action = next(c.stream)
                    if action.cycle_start and (
                            host.done if c is not host else perf() >= deadline):
                        c.done = True
                        continue
                    if next_restart is not None and perf() >= next_restart:
                        self.drain(conns)
                        self.restart_local(swap=False)
                        next_restart += restart_every
                    self.start_request(c, action, conns)
                self.complete_ready(conns)
        except Mismatch:
            pass
        finally:
            for c in conns:
                c.link.close()
        self.phase_s = perf() - t0

    def complete_ready(self, conns: list["Conn"]) -> None:
        waiting = [c for c in conns if c.action is not None]
        give_up = perf() + REPLY_TIMEOUT
        while waiting:
            ready = [c for c in waiting if c.link.ready()]
            if ready:
                for c in ready:
                    self.complete(c)
                return
            if perf() > give_up:
                self.fail(f"no reply within {REPLY_TIMEOUT} s")

    def drain(self, conns: list["Conn"]) -> None:
        while any(c.action is not None for c in conns):
            self.complete_ready(conns)

    def start_request(self, c: "Conn", action: Action, conns: list["Conn"]) -> None:
        c.records.sent += 1
        reconnect = c.records.sent % self.spec.reconnect_every == 0
        heavy = action.kind == "insert_block" or (
            action.kind == "query_user" and action.user not in c.query_sigs)
        if reconnect or heavy:
            self.drain(conns)
        if reconnect:
            c.link.close()
            c.records.connects.append(c.link.connect())
            c.query_sigs.clear()
        kind = action.kind
        msg = action.msg
        if kind == "query_user":
            sig = c.query_sigs.get(action.user)
            if sig is None:
                probe = wire.QueryUser(action.user.address)
                sig = c.query_sigs[action.user] = self.signer.sign(
                    action.user.keys, probe.signing_digest(c.link.session.session_id))
            msg = wire.QueryUser(action.user.address, sig)
        elif kind == "query_ledger":
            msg = wire.QueryLedger()
        elif kind == "get_settlement":
            msg = wire.GetSettlement()
        elif kind == "insert_block":
            txs = []
            if action.fund:
                c.funded, c.pending = c.pending[:action.fund], c.pending[action.fund:]
                txs.append(self.funding_tx([m for _, m in c.funded], DEPOSIT_VALUE))
            if action.confirm:
                txs.append(c.plan_tx)
                self.checks["plan_on_chain"] += 1
            msg = self.mine_insert(txs)
            gc.collect()
            gc.freeze()
        c.action = action
        c.link.start(msg)

    def complete(self, c: "Conn") -> None:
        action, c.action = c.action, None
        reply = self.record(c.records, action, c.link.finish())
        user = action.user
        if action.kind in ("payment", "settle", "add_deposit"):
            self.truth_nonce[user] += 1
            self.truth_balance[user] -= action.debits
            for address, amount in action.credits:
                self.truth_balance[self.by_address[address]] += amount
        elif action.kind == "query_user":
            # with several connections, payments of the others may be in flight
            exact = len(self.groups) == 1
            if reply["nonce"] != self.truth_nonce[user] or (
                    exact and reply["balance"] != self.truth_balance[user]):
                self.fail(f"query_user: {reply}, model nonce {self.truth_nonce[user]} "
                          f"balance {self.truth_balance[user]}")
        if c.host:
            self.last_after = action.after
        if action.kind == "add_deposit":
            c.pending.append((user, reply["manager_address"]))
        elif action.kind == "get_settlement":
            c.plan_tx = Transaction.deserialize(reply["tx"])
        elif action.kind == "insert_block":
            for funded_user, _ in c.funded:
                self.truth_balance[funded_user] += DEPOSIT_VALUE - FARE
            c.funded = []

    # --- checks and restart ---

    def final_checks(self) -> None:
        if self.spec.transport == "local":
            hub = self.hub
            if not hub.conservation()["ok"]:
                self.fail("conservation does not hold")
            ledger = hub.query_ledger()
            for u in self.users:
                state = hub.users[u.address]
                if (state.balance, state.nonce) != (self.truth_balance[u], self.truth_nonce[u]):
                    self.fail(f"user {u.address.hex()}: hub {state.balance}/{state.nonce}, "
                              f"model {self.truth_balance[u]}/{self.truth_nonce[u]}")
        else:
            link = self.new_link()
            link.connect()
            ledger = self.send(link, wire.QueryLedger(), "query_ledger", {"conservation_ok": 1})
            for u in self.users:
                msg = wire.QueryUser(u.address)
                msg.signature = self.signer.sign(u.keys, msg.signing_digest(link.session.session_id))
                self.send(link, msg, "query_user",
                          {"balance": self.truth_balance[u], "nonce": self.truth_nonce[u]})
            link.close()
        self.checks["conservation"] += 1
        self.checks["balances_nonces"] += len(self.users)
        queued, confirmed, outstanding = self.last_after
        expect = {"queued": queued, "plans_confirmed": confirmed,
                  "plan_outstanding": outstanding, "fee_avg": FEE_AVG}
        for key, value in expect.items():
            if ledger[key] != value:
                self.fail(f"ledger {key}={ledger[key]}, model {value}")
        self.checks["ledger_model"] += 1

    def restart_local(self, swap: bool) -> None:
        """dump_hub then load_hub of the hub as it stands; the reloaded hub's
        ledger must equal the one before the dump. With `swap` the reloaded
        hub replaces the running one."""
        gc.collect()
        gc.freeze()
        before = self.hub.query_ledger()
        t0 = perf()
        data = self.traced_call(snapshot.dump_hub, self.hub)
        hub = self.traced_call(snapshot.load_hub, data)
        self.restart_times.append(perf() - t0)
        self.snapshot_bytes = len(data)
        after = hub.query_ledger()
        if swap:
            self.hub = hub
        del hub
        gc.collect()  # a dropped copy is not left to a collection inside a timed window
        if before != after:
            self.fail(f"ledger changed across restart: {before} != {after}")
        self.checks["restart_ledger"] += 1

    def restart(self) -> None:
        """Restart of the final state: in process once, as its other
        samples come from the timed phase; over TCP `restart_reps` times,
        each a daemon restart. The ledger must survive each one."""
        if self.spec.transport == "local":
            self.restart_local(swap=True)
            return
        for _ in range(self.spec.restart_reps):
            gc.collect()
            gc.freeze()
            link = self.new_link()
            link.connect()
            before = self.send(link, wire.QueryLedger(), "query_ledger")
            link.close()
            t0 = perf()
            self.stop_daemon()  # writes the snapshot on the way out
            self.snapshot_bytes = os.path.getsize(self.snapshot_path)
            self.port = self.spawn_daemon(auto_init=False)
            link = self.new_link()
            link.connect()
            self.restart_times.append(perf() - t0)
            after = self.send(link, wire.QueryLedger(), "query_ledger")
            link.close()
            if before != after:
                self.fail(f"ledger changed across restart: {before} != {after}")
            self.checks["restart_ledger"] += 1

    def execute(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.work_dir = tempfile.mkdtemp(prefix=f"{self.spec.name}-{self.seed}-", dir=OUT_DIR)
        os.sched_setaffinity(0, {self.cpus[0]})
        try:
            try:
                self.setup()
                self.timed_phase()
                if not self.failed:
                    self.final_checks()
                    self.restart()
            except Mismatch:
                pass
            if self.daemons:
                self.stop_daemon()
        finally:
            self.kill_all()
            gc.unfreeze()
            os.sched_setaffinity(0, self.all_cpus)
        if not self.failed:
            shutil.rmtree(self.work_dir)  # daemon logs and snapshots stay after a failure

    # --- results ---

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {k: [] for k in KINDS}
        for rec in self.records:
            for kind, latency in zip(rec.kind, rec.latency):
                out[KINDS[kind]].append(latency)
        return out

    def slices(self) -> list[list[tuple[int, float]]]:
        """(kind, latency) of every timed request, cut into equal spans of
        the phase's wall time. Over TCP every request needs the other
        process to wake up, so a burst of interference from outside the
        benchmark (another tenant of the machine) stalls many requests at
        once; tails there are medians over SLICES spans, so that
        such a burst moves one span, not the result. In process the phase
        is one span: it runs whole cycles, whose mix is not stationary
        within a cycle."""
        n = SLICES if self.spec.transport == "tcp" else 1
        out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        span = self.phase_s / n
        for rec in self.records:
            for kind, latency, at in zip(rec.kind, rec.latency, rec.done_at):
                out[min(n - 1, int((at - self.phase_t0) / span))].append((kind, latency))
        return out

    def req_per_s(self) -> float:
        """Requests per second of the timed phase. In process the load
        generator shares the thread with the hub, so the clock runs only
        inside the frame-handler windows. Over TCP it is the closed-loop
        rate: per connection, one over the median time from one reply to the
        next, summed over the connections. A stall of either process (another
        tenant of the machine taking its CPU) lengthens a few intervals, not
        the median, whereas on the wall clock of a shared 2-vCPU machine such
        stalls halved the rate of some runs (`wall_req_per_s`)."""
        if self.spec.transport == "local":
            busy = sum(sum(rec.latency) for rec in self.records)
            return sum(len(rec.latency) for rec in self.records) / busy if busy else 0.0
        rate = 0.0
        for rec in self.records:
            intervals = [b - a for a, b in zip(rec.done_at, rec.done_at[1:])]
            if intervals:
                rate += 1 / median(intervals)
        return rate

    def wall_req_per_s(self) -> float:
        """Requests completed over the wall time of the timed phase."""
        done = sum(len(rec.latency) for rec in self.records)
        return done / self.phase_s if self.phase_s else 0.0

    def p99(self, kind: str) -> float:
        """99th percentile per slice, median over the slices if more than
        half of them hold MIN_TAIL_SAMPLES of the kind; over the whole phase
        otherwise."""
        kid = KIND_ID[kind]
        parts = [[l for k, l in part if k == kid] for part in self.slices()]
        tails = [percentile(p, 0.99) for p in parts if len(p) >= MIN_TAIL_SAMPLES]
        if len(tails) * 2 > len(parts):
            return median(tails)
        return percentile([l for p in parts for l in p], 0.99)

    def end_to_end(self) -> tuple[dict, dict]:
        lat = self.by_kind()
        plans = [l for rec in self.records for l, b in zip(rec.latency, rec.built) if b]
        connects = [c for rec in self.records for c in rec.connects]
        samples = {
            "payment": len(lat["payment"]), "settle": len(lat["settle"]),
            "read": len(lat[self.spec.read_kind]), "plan": len(plans),
            "insert_block": len(lat["insert_block"]), "connect": len(connects),
            "setup": len(self.setup_times), "restart": len(self.restart_times),
        }
        metrics = {
            "setup_s": (median(self.setup_times), "s"),
            "req_per_s": (self.req_per_s(), "1/s"),
            "pay_p50_us": (median(lat["payment"]) * 1e6, "us"),
            "pay_p99_us": (self.p99("payment") * 1e6, "us"),
            "read_p50_us": (median(lat[self.spec.read_kind]) * 1e6, "us"),
            "settle_p50_us": (median(lat["settle"]) * 1e6, "us"),
            "settle_p99_us": (self.p99("settle") * 1e6, "us"),
            "plan_build_ms": (median(plans) * 1e3, "ms"),
            "insert_p50_ms": (median(lat["insert_block"]) * 1e3, "ms"),
            "connect_p50_ms": (median(connects) * 1e3, "ms"),
            "restart_s": (median(self.restart_times), "s"),
        }
        return metrics, samples


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]
