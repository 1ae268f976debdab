import pytest

from routee.errors import SnapshotError
from routee.snapshot import MAGIC, dump_hub, load_hub

from conftest import HubHarness, run_conservation_mix


def state_fingerprint(hub):
    """Everything observable about a hub, for exact restore comparison."""
    return {
        "ledger": hub.query_ledger(),
        "chain": (hub.chain.start_height, hub.chain.tip_height, hub.chain.tip_hash),
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
    harness = HubHarness(seed=9)
    alice = harness.new_user()
    harness.deposit(alice, 400_000)
    harness.settle(alice, 10_000, 1_000)
    assert harness.hub.plan is not None
    restored = load_hub(dump_hub(harness.hub))
    assert restored.plan is not None
    assert restored.plan.txid == harness.hub.plan.txid
    assert restored.plan.input_outpoints == harness.hub.plan.input_outpoints
    # the restored hub can confirm the same plan
    harness.node.submit_tx(restored.plan.transaction)
    block = harness.node.mine_block()
    from routee.client import build_insert_block

    msg = build_insert_block(harness.suite.auth, harness.host,
                             block.serialize(), block.header.hash())
    report = restored.insert_block(msg)
    assert report.confirmed_plan
    assert restored.conservation()["ok"]


def test_restored_hub_continues_deterministically():
    # manager keys generated after restore match what the original would do
    harness = HubHarness(seed=10)
    alice = harness.new_user()
    restored = load_hub(dump_hub(harness.hub))
    from routee.client import build_add_deposit

    msg = build_add_deposit(harness.suite.auth, alice, 0)
    assert harness.hub.add_deposit(msg) == restored.add_deposit(msg)


def test_snapshot_bad_magic_and_version():
    harness = HubHarness(seed=11)
    data = dump_hub(harness.hub)
    with pytest.raises(SnapshotError):
        load_hub(b"XXXX" + data[4:])
    with pytest.raises(SnapshotError):
        load_hub(data[:4] + b"\x00\x63" + data[6:])


def test_snapshot_refuses_any_flipped_bit():
    data = dump_hub(HubHarness(seed=11).hub)
    for pos in range(len(data)):
        flipped = bytearray(data)
        flipped[pos] ^= 1 << (pos % 8)
        with pytest.raises(SnapshotError):
            load_hub(bytes(flipped))
