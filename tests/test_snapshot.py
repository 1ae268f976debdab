import pytest

from routee import wire
from routee.crypto import sha256
from routee.errors import SnapshotError
from routee.scenarios import World
from routee.snapshot import MAGIC, TRAILER_SIZE, HubImage, dump_hub, load_hub
from routee.transactions import Transaction

from conftest import run_conservation_mix


def state_fingerprint(hub):
    """Everything observable about a hub, for exact restore comparison."""
    return {
        "ledger": hub.query_ledger(),
        "chain": (hub.chain.tip_height, hub.chain.tip_hash),
        "users": {
            a.hex(): (u.nonce, u.balance, u.max_source_block, u.boundary_block,
                      u.settle_address)
            for a, u in hub.users.items()
        },
        "pending": sorted(hub.pending_deposits),
        "owned": {op: (d.value, d.fare_precollected, d.source_height, d.lock_address)
                  for op, d in hub.owned.items()},
        "managers": sorted(hub.manager_keys),
        "queue": [(r.user_address, r.amount, r.fee, r.enqueue_seq, r.is_host)
                  for r in hub.queue],
        "plan": hub.plan.transaction.serialize() if hub.plan else None,
        "rng": hub.rng.getstate(),
        "window": list(hub.estimator.window),
        "next_seq": hub._next_enqueue_seq,
    }


def test_snapshot_roundtrip_restores_exact_state():
    harness = run_conservation_mix(seed=404, n_ops=120, n_users=6, assert_each_step=False)
    data = dump_hub(harness.hub)
    assert data[:4] == MAGIC
    restored = load_hub(data)
    assert state_fingerprint(restored) == state_fingerprint(harness.hub)
    # and a second dump is byte-identical
    assert dump_hub(restored) == data


def test_snapshot_mid_plan_keeps_outstanding_settlement():
    harness = World(seed=9)
    alice = harness.new_user()
    harness.deposit(alice, 400_000)
    harness.settle(alice, 10_000, 1_000)
    assert harness.signed_plan() is not None
    restored = load_hub(dump_hub(harness.hub))
    assert restored.plan is not None
    assert restored.plan.transaction == harness.hub.plan.transaction
    assert restored.plan.input_outpoints == harness.hub.plan.input_outpoints
    # the reply derived from the restored plan matches the original's
    assert restored.apply_request(wire.GetSettlement()) == harness.hub.apply_request(wire.GetSettlement())
    # the restored hub can confirm the same plan
    harness.node.submit_tx(restored.plan.transaction)
    block = harness.node.mine_block()
    msg = harness.host.sign(wire.InsertBlock(block.serialize()), block.header.hash())
    assert restored.insert_block(msg)["confirmed_plan"] == 1
    assert restored.conservation()["ok"]


def test_restored_hub_continues_deterministically():
    # manager keys generated after restore match what the original would do
    harness = World(seed=10)
    alice = harness.new_user()
    restored = load_hub(dump_hub(harness.hub))
    msg = alice.sign(wire.AddDeposit(alice.address, 0))
    assert harness.hub.add_deposit(msg) == restored.add_deposit(msg)


def test_snapshot_bad_magic_and_version():
    harness = World(seed=11)
    data = dump_hub(harness.hub)
    with pytest.raises(SnapshotError):
        load_hub(b"XXXX" + data[4:])
    with pytest.raises(SnapshotError):
        load_hub(data[:4] + b"\x00\x63" + data[6:])
    with pytest.raises(SnapshotError, match="version 3"):
        load_hub(data[:4] + b"\x00\x03" + data[6:])
    # version 4 kept the height its header chain started at
    with pytest.raises(SnapshotError, match="unsupported snapshot version 4"):
        load_hub(data[:4] + b"\x00\x04" + data[6:])


def test_snapshot_refuses_any_flipped_bit():
    data = dump_hub(World(seed=11).hub)
    for pos in range(len(data)):
        flipped = bytearray(data)
        flipped[pos] ^= 1 << (pos % 8)
        with pytest.raises(SnapshotError):
            load_hub(bytes(flipped))


def _without_key(image, address):
    image.manager_keys = [key for key in image.manager_keys if key.address != address]


def _leftover_address(image):
    return Transaction.deserialize(image.plan[0].transaction).outputs[-1].lock_address


def _without_outputs(image):
    tx = Transaction.deserialize(image.plan[0].transaction)
    image.plan[0].transaction = Transaction(tx.inputs, []).serialize()


# each edit leaves a well-formed image that no sequence of requests produces
_UNREACHABLE = {
    "host_balance": ("ledger does not balance",
                     lambda image: setattr(image, "host_balance", image.host_balance + 1)),
    "plan_input": ("plan spends a deposit", lambda image: setattr(image, "owned", [])),
    "owned_key": ("manager key", lambda image: _without_key(image, image.owned[0].lock_address)),
    "pending_key": ("manager key", lambda image: _without_key(image, image.pending[0].manager_address)),
    "leftover_key": ("manager key", lambda image: _without_key(image, _leftover_address(image))),
    "user_address": ("user address", lambda image: setattr(image.users[0], "user_address", b"\x01" * 20)),
    "queue_order": ("settlement order", lambda image: image.queue.reverse()),
    "pending_order": ("expiry order", lambda image: image.pending.reverse()),
    "two_plans": ("2 outstanding plans", lambda image: image.plan.append(image.plan[0])),
    "plan_outputs": ("plan without a leftover output", _without_outputs),
}


@pytest.mark.parametrize("name", sorted(_UNREACHABLE))
def test_snapshot_refuses_state_no_request_sequence_reaches(name):
    harness = World(seed=12)
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 400_000)
    harness.hub.add_deposit(bob.sign(wire.AddDeposit(bob.address, harness.nonce(bob))))
    harness.settle(alice, 10_000, 1_000)
    # with the plan outstanding, further requests wait in the queue
    harness.settle(alice, 1_000, 40)
    harness.settle(alice, 1_000, 50)
    # a second pending deposit, a block later, expires a block later
    harness.insert(harness.node.mine_block())
    harness.hub.add_deposit(bob.sign(wire.AddDeposit(bob.address, harness.nonce(bob))))
    expiry = [pending.expiry_height for pending in harness.hub.pending_deposits.values()]
    assert len(expiry) == 2 and expiry[0] < expiry[1]
    data = dump_hub(harness.hub)
    assert load_hub(data).plan is not None
    assert [r.fee for r in harness.hub.queue] == [50, 40]
    reason, edit = _UNREACHABLE[name]
    image = wire.decode(HubImage, data[6:-TRAILER_SIZE])
    edit(image)
    body = data[:6] + wire.encode(image)
    with pytest.raises(SnapshotError, match=reason):
        load_hub(body + sha256(body))
