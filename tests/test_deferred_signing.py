"""A settlement plan is decided inside the request that builds it and signed
afterwards, by `Hub.sign_plan`: in process before the frame returns, in the
daemon a slice at a time between frames. Until every input is signed the hub
does not hand the plan out."""

import time

from routee import wire
from routee.client import LocalConnection, LocalHubEndpoint, RemoteHub
from routee import daemon as daemon_mod
from routee.crypto import CryptoSuite, DeterministicRng, EcdsaScheme
from routee.daemon import KEY_POOL_SIZE, DaemonConfig, HubDaemon
from routee.scenarios import World
from routee.snapshot import dump_hub, load_hub

from conftest import FAST

WAIT_S = 5.0


def three_input_plan(seed, suite=FAST):
    """A harness whose hub owns three deposits and holds an unsigned plan
    spending all of them."""
    harness = World(seed=seed, suite=suite)
    alice = harness.new_user()
    for _ in range(3):
        harness.deposit(alice, 200_000)
    harness.settle(alice, 10_000, 1_000)
    plan = harness.hub.plan
    assert plan is not None and plan.tx_inputs == 3
    return harness


def test_sign_plan_past_its_deadline_signs_one_input_per_call():
    harness = three_input_plan(seed=42)
    hub = harness.hub
    inputs = hub.plan.transaction.inputs
    for signed in range(3):
        assert [bool(txin.unlock) for txin in inputs] == [True] * signed + [False] * (3 - signed)
        assert not hub.plan.signed
        assert hub.apply_request(wire.GetSettlement()) == {"present": 0}
        assert hub.sign_plan(deadline=0.0) is (signed == 2)
    assert hub.sign_plan(deadline=0.0) is True  # nothing left: no more signing
    reply = hub.apply_request(wire.GetSettlement())
    assert reply["present"] == 1 and reply["tx_inputs"] == 3
    tx = hub.plan.transaction
    assert reply["tx"] == tx.serialize()
    harness.node.submit_tx(tx)
    assert harness.insert(harness.node.mine_block())["confirmed_plan"] == 1
    assert hub.conservation()["ok"]
    assert World(seed=1).hub.sign_plan() is True  # no plan at all


def test_half_signed_plan_survives_a_snapshot_and_finishes_after_load():
    harness = three_input_plan(seed=43)
    assert harness.hub.sign_plan(deadline=0.0) is False
    restored = load_hub(dump_hub(harness.hub))
    plan = restored.plan
    assert [bool(txin.unlock) for txin in plan.transaction.inputs] == [True, False, False]
    assert restored.apply_request(wire.GetSettlement()) == {"present": 0}
    assert restored.sign_plan() is True
    assert restored.conservation()["ok"]
    harness.node.submit_tx(plan.transaction)
    block = harness.node.mine_block()
    msg = harness.host.sign(wire.InsertBlock(block.serialize()), block.header.hash())
    assert restored.insert_block(msg)["confirmed_plan"] == 1
    assert restored.conservation()["ok"]


def test_in_process_front_end_signs_before_the_frame_returns():
    harness = World(seed=44)
    alice = harness.new_user()
    for _ in range(3):
        harness.deposit(alice, 200_000)
    conn = LocalConnection(LocalHubEndpoint(harness.hub, session_rng=DeterministicRng(44)))
    settle = wire.Settle(alice.address, harness.nonce(alice), 10_000, 1_000)
    conn.request(alice.sign(settle))
    assert harness.hub.plan.signed
    reply = conn.request(wire.GetSettlement())
    assert reply["present"] == 1
    harness.node.submit_tx(harness.hub.plan.transaction)


def test_daemon_loop_finishes_a_loaded_half_signed_plan(tmp_path):
    harness = three_input_plan(seed=45)
    assert harness.hub.sign_plan(deadline=0.0) is False
    path = tmp_path / "hub.snap"
    path.write_bytes(dump_hub(harness.hub))
    daemon = HubDaemon(DaemonConfig(overrides={"snapshot_path": str(path)}))
    daemon.start()
    try:
        # no frame arrives: the loop's first turn runs the signing hook
        deadline = time.monotonic() + WAIT_S
        while not daemon.hub.plan.signed:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with RemoteHub("127.0.0.1", daemon.port) as remote:
            reply = remote.request(wire.GetSettlement())
    finally:
        daemon.stop()
    assert reply["present"] == 1
    assert daemon.hub.conservation()["ok"]
    harness.node.submit_tx(daemon.hub.plan.transaction)


def test_daemon_idle_hook_signs_the_plan_before_it_makes_keys(tmp_path, monkeypatch):
    harness = three_input_plan(seed=46, suite=CryptoSuite.full())
    data = dump_hub(harness.hub)
    path = tmp_path / "hub.snap"
    path.write_bytes(data)
    monkeypatch.setattr(daemon_mod, "SIGN_SLICE_S", 0.0)  # one input per turn
    daemon = HubDaemon(DaemonConfig(overrides={"snapshot_path": str(path)}))
    hub = daemon.hub
    try:
        # the turns that sign make no key, so the plan is handed out as
        # early as when the hook only signed
        for _ in range(3):
            assert hub.apply_request(wire.GetSettlement()) == {"present": 0}
            assert daemon._idle_slice() is False
            assert hub.key_pool == []
        assert hub.apply_request(wire.GetSettlement())["present"] == 1
        # no key is made before this process hands one out
        assert daemon._idle_slice() is True and hub.key_pool == []
        hub._new_manager_key()  # as a deposit or the next plan's leftover does
        # then each turn makes one key, until the pool is full
        for size in range(1, KEY_POOL_SIZE + 1):
            assert daemon._idle_slice() is (size == KEY_POOL_SIZE)
            assert len(hub.key_pool) == size
        assert daemon._idle_slice() is True and len(hub.key_pool) == KEY_POOL_SIZE
    finally:
        daemon.stop()

    # the running loop signs the same without a frame arriving, and makes
    # no key: none has been handed out
    path.write_bytes(data)  # the stop above stored the signed plan
    daemon = HubDaemon(DaemonConfig(overrides={"snapshot_path": str(path)}))
    assert daemon.hub.key_pool == []  # the snapshot holds no pool
    daemon.start()
    try:
        deadline = time.monotonic() + WAIT_S
        while not daemon.hub.plan.signed:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with RemoteHub("127.0.0.1", daemon.port) as remote:
            assert remote.request(wire.GetSettlement())["present"] == 1
    finally:
        daemon.stop()
    assert daemon.hub.key_pool == []


def test_a_restarted_daemon_makes_no_key_before_it_hands_one_out(tmp_path, monkeypatch):
    harness = World(seed=47, suite=CryptoSuite.full())
    alice = harness.new_user()
    harness.deposit(alice, 200_000)
    path = tmp_path / "hub.snap"
    path.write_bytes(dump_hub(harness.hub))
    made = []
    generate = EcdsaScheme.generate
    monkeypatch.setattr(EcdsaScheme, "generate", lambda scheme, rng=None: made.append(rng) or generate(scheme, rng))
    daemon = HubDaemon(DaemonConfig(overrides={"snapshot_path": str(path)}))
    daemon.start()
    try:
        with RemoteHub("127.0.0.1", daemon.port) as remote:
            # each reply leaves after the idle hook of the turns before it
            for _ in range(2):
                assert remote.request(wire.QueryLedger())["conservation_ok"] == 1
            assert made == [] and daemon.hub.key_pool == []
            nonce = harness.nonce(alice)
            remote.request(alice.sign(wire.AddDeposit(alice.address, nonce)))
        deadline = time.monotonic() + WAIT_S
        while len(daemon.hub.key_pool) < KEY_POOL_SIZE:
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        daemon.stop()
    # the deposit's key, made in its request, then the pool's
    assert len(made) == 1 + KEY_POOL_SIZE and len(daemon.hub.key_pool) == KEY_POOL_SIZE
