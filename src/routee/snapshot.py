"""Versioned binary dump of the full hub state.

Layout (version 5): magic "RTEE", 2-byte big-endian version, a `HubImage`
record (configuration, RNG position, totals, then one table per kind of hub
state, the first being the header chain from genesis), then the SHA-256 of
everything before it. The tables hold the hub's own records (users, pending
and owned deposits, settle requests), so memory, dump and load share one
declaration each; a plan is stored as its transaction plus what that
transaction does not determine. Loading reconstructs an identical hub,
including the deterministic RNG position, so manager-key generation continues
where it left off. Any bytes load as a hub or raise `SnapshotError`: the
trailer refuses a damaged file, and a restored hub must verify its chain from
genesis, balance its ledger, keep its queue in settlement order and its
pending deposits in expiry order, hold the key of every deposit it owns or
awaits and own every input of its plan. The hub's running totals are not
stored: a load derives them from the tables.

Known limitation: snapshots carry no rollback protection. An operator
restoring an old file resurrects old state; guarding against that would need
a monotonic counter outside the snapshot itself.
"""
from __future__ import annotations

from . import wire
from .crypto import CryptoSuite, DeterministicRng, address_of, sha256
from .errors import RouteeError, SnapshotError
from .headers import BlockHeader, ChainParams, HeaderChain
from .hub import Hub, HubConfig, OwnedDeposit, PendingDeposit, SettleRequest, SettlementPlan, UserState, queue_order
from .transactions import Transaction
from .wire import fixed, record, repeated, text, trailing

MAGIC = b"RTEE"
VERSION = 5
TRAILER_SIZE = 32


@record
class FeeSample:
    value: int = fixed("Q")


@record
class ManagerKey:
    address: bytes = fixed("20s")
    secret: bytes = trailing()
    public: bytes = trailing()


@record
class PlanRow:
    """What a plan's transaction and requests do not determine: its size,
    fee and leftover output follow from the transaction, its settled value
    from the requests."""

    b_total: int = fixed("Q")
    rf_confirmed_on_confirm: int = fixed("Q")
    host_subsidy: int = fixed("Q")
    transaction: bytes = trailing()
    selected: list[SettleRequest] = repeated(SettleRequest)


@record
class HubImage:
    """`headers` is empty before init, else the chain from genesis; `plan`
    holds at most one plan."""

    retarget_interval: int = fixed("Q")
    target_spacing: int = fixed("Q")
    pow_limit_bits: int = fixed("I")
    host_settle_address: bytes = fixed("20s")
    min_routing_fee: int = fixed("Q")
    rf_pending: int = fixed("Q")
    rf_confirmed: int = fixed("Q")
    host_balance: int = fixed("Q")
    fee_reserve: int = fixed("Q")
    rf_collected_total: int = fixed("Q")
    settled_amount_total: int = fixed("Q")
    plans_confirmed: int = fixed("Q")
    terminating: bool = fixed("?")
    rng_seed: bytes = fixed("32s")
    rng_counter: int = fixed("Q")
    next_enqueue_seq: int = fixed("Q")
    mode: str = text()
    host_public_key: bytes = trailing()
    headers: list[wire.RawHeader] = repeated(wire.RawHeader)
    fee_window: list[FeeSample] = repeated(FeeSample)
    users: list[UserState] = repeated(UserState)
    pending: list[PendingDeposit] = repeated(PendingDeposit)
    owned: list[OwnedDeposit] = repeated(OwnedDeposit)
    manager_keys: list[ManagerKey] = repeated(ManagerKey)
    queue: list[SettleRequest] = repeated(SettleRequest)
    plan: list[PlanRow] = repeated(PlanRow)


# attributes the image keeps under their own names: of the hub's chain
# parameters, of its configuration and of the hub itself
_PARAMS = ("retarget_interval", "target_spacing", "pow_limit_bits")
_CONFIG = ("host_public_key", "host_settle_address", "min_routing_fee")
_PLAN = ("b_total", "rf_confirmed_on_confirm", "host_subsidy")
_TOTALS = ("rf_pending", "rf_confirmed", "host_balance", "fee_reserve", "rf_collected_total",
           "settled_amount_total", "plans_confirmed", "terminating")


def _named(obj, names: tuple[str, ...]) -> dict:
    return {name: getattr(obj, name) for name in names}


def _image(hub: Hub) -> HubImage:
    seed, counter = hub.rng.getstate()
    plans = [
        PlanRow(**_named(plan, _PLAN), transaction=plan.transaction.serialize(), selected=plan.selected)
        for plan in ([hub.plan] if hub.plan else [])
    ]
    return HubImage(
        **_named(hub.config.chain_params, _PARAMS), **_named(hub.config, _CONFIG), **_named(hub, _TOTALS),
        rng_seed=seed, rng_counter=counter, mode=hub.suite.mode, next_enqueue_seq=hub._next_enqueue_seq,
        headers=[wire.RawHeader(h.serialize()) for h in hub.chain.headers] if hub.chain else [],
        fee_window=[FeeSample(sample) for sample in hub.estimator.window],
        users=list(hub.users.values()),
        pending=list(hub.pending_deposits.values()),
        owned=list(hub.owned.values()),
        manager_keys=[ManagerKey(address, hub.suite.onchain.secret_bytes(sk), pk)
                      for address, (sk, pk) in hub.manager_keys.items()],
        queue=hub.queue,
        plan=plans,
    )


def dump_hub(hub: Hub) -> bytes:
    body = MAGIC + VERSION.to_bytes(2, "big") + wire.encode(_image(hub))
    return body + sha256(body)


def _restore(image: HubImage) -> Hub:
    params = ChainParams(**_named(image, _PARAMS))
    hub = Hub(HubConfig(**_named(image, _CONFIG), chain_params=params, suite=CryptoSuite.from_mode(image.mode)))
    hub.rng = DeterministicRng.fromstate((image.rng_seed, image.rng_counter))
    if image.headers:
        hub.chain = HeaderChain(params, [BlockHeader.deserialize(row.raw) for row in image.headers])
    for sample in image.fee_window:
        hub.estimator.add(sample.value)
    hub.users = {user.user_address: user for user in image.users}
    hub.pending_deposits = {pending.manager_address: pending for pending in image.pending}
    hub.owned = {deposit.outpoint: deposit for deposit in image.owned}
    load_secret = hub.suite.onchain.load_secret
    hub.manager_keys = {row.address: (load_secret(row.secret), row.public) for row in image.manager_keys}
    hub.queue = image.queue
    hub._next_enqueue_seq = image.next_enqueue_seq
    if len(image.plan) > 1:
        raise SnapshotError(f"{len(image.plan)} outstanding plans")
    for row in image.plan:
        tx = Transaction.deserialize(row.transaction)
        if not tx.outputs:
            raise SnapshotError("plan without a leftover output")
        hub.plan = SettlementPlan(tx, row.selected, **_named(row, _PLAN))
    for name in _TOTALS:
        setattr(hub, name, getattr(image, name))
    vars(hub).update(hub._recount())  # the running totals are derived, not stored
    _check(hub)
    return hub


def _check(hub: Hub) -> None:
    """Refuse a hub that no sequence of requests could have left behind."""
    if any(address_of(user.public_key) != address for address, user in hub.users.items()):
        raise SnapshotError("user address does not match its key")
    order = [queue_order(request) for request in hub.queue]
    if order != sorted(order):
        raise SnapshotError("queue out of settlement order")
    expiry = [pending.expiry_height for pending in hub.pending_deposits.values()]
    if expiry != sorted(expiry):
        raise SnapshotError("pending deposits out of expiry order")
    locks = [deposit.lock_address for deposit in hub.owned.values()] + list(hub.pending_deposits)
    if hub.plan is not None:
        if any(outpoint not in hub.owned for outpoint in hub.plan.input_outpoints):
            raise SnapshotError("plan spends a deposit the hub does not own")
        locks.append(hub.plan.transaction.outputs[-1].lock_address)
    if any(lock not in hub.manager_keys for lock in locks):
        raise SnapshotError("deposit without its manager key")
    if not hub.conservation()["ok"]:
        raise SnapshotError("ledger does not balance")


def load_hub(data: bytes) -> Hub:
    if data[:4] != MAGIC:
        raise SnapshotError("bad magic")
    version = int.from_bytes(data[4:6], "big")
    if version != VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    body, trailer = data[:-TRAILER_SIZE], data[-TRAILER_SIZE:]
    if len(body) < 6 or sha256(body) != trailer:
        raise SnapshotError("checksum mismatch")
    try:
        return _restore(wire.decode(HubImage, body[6:]))
    # a well-formed image can still hold values the hub refuses: an unknown
    # crypto mode, a header chain that does not verify
    except (RouteeError, ValueError, ArithmeticError) as exc:
        raise SnapshotError(f"{type(exc).__name__}: {exc}") from None
