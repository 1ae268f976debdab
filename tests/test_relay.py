import pytest

from routee import wire
from routee.client import LocalConnection, LocalHubEndpoint
from routee.crypto import DeterministicRng
from routee.errors import SessionAborted
from routee.relay import Relay, RelaySchedule
from routee.scenarios import World



def endpoint_world(seed=17):
    harness = World(seed=seed)
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 500_000)
    harness.set_boundary(bob)
    endpoint = LocalHubEndpoint(harness.hub, session_rng=DeterministicRng(seed))
    return harness, endpoint, alice, bob


def test_passthrough_schedule_is_identity():
    harness, endpoint, alice, bob = endpoint_world()
    relay = Relay(RelaySchedule(seed=0))
    conn = LocalConnection(endpoint, relay=relay, rng=DeterministicRng(1))
    msg = wire.Payment(alice.address, harness.nonce(alice), [wire.PaymentItem(bob.address, 250, 5)])
    result = conn.request(alice.sign(msg))
    assert result == {"accepted": 1}
    assert harness.balance(bob) == 250
    assert relay.dropped == relay.duplicated == relay.reordered == 0


def test_duplicate_everything_never_double_applies():
    harness, endpoint, alice, bob = endpoint_world()
    relay = Relay(RelaySchedule(seed=1, p_duplicate=1.0))
    applied = 0
    for _ in range(15):
        conn = LocalConnection(endpoint, relay=relay, rng=DeterministicRng(applied + 2))
        msg = wire.Payment(alice.address, harness.nonce(alice), [wire.PaymentItem(bob.address, 100, 5)])
        msg = alice.sign(msg)
        try:
            conn.request(msg)
        except SessionAborted:
            pass
        applied += 1
    # first copy applies, second kills the session; never a double credit
    assert harness.balance(bob) == 15 * 100
    assert relay.duplicated == 15
    assert harness.hub.conservation()["ok"]


def test_drop_all_settlement_requests_costs_nothing():
    harness, endpoint, alice, bob = endpoint_world()
    ledger_before = harness.hub.query_ledger()
    balance_before = harness.balance(alice)
    relay = Relay(RelaySchedule(seed=2, p_drop=1.0))
    for i in range(10):
        conn = LocalConnection(endpoint, relay=relay, rng=DeterministicRng(100 + i))
        msg = alice.sign(wire.Settle(alice.address, harness.nonce(alice), 1_000, 340))
        with pytest.raises(SessionAborted):
            conn.request(msg)
    assert relay.dropped == 10
    assert harness.balance(alice) == balance_before
    assert harness.hub.query_ledger() == ledger_before
    assert not harness.hub.queue


def test_relay_only_touches_envelope_frames():
    relay = Relay(RelaySchedule(seed=3, p_drop=1.0))
    headers_frame = wire.pack_frame(wire.FRAME_HEADERS_REQ, b"\x00" * 10)
    assert relay.feed(headers_frame) == [headers_frame]
    env_frame = wire.pack_frame(wire.FRAME_ENVELOPE, b"\x00" * 10)
    assert relay.feed(env_frame) == []


def test_reorder_holds_and_releases_frames():
    relay = Relay(RelaySchedule(seed=5, p_reorder=1.0, max_hold=1))
    a = wire.pack_frame(wire.FRAME_ENVELOPE, b"a")
    b = wire.pack_frame(wire.FRAME_ENVELOPE, b"b")
    first = relay.feed(a)   # held
    second = relay.feed(b)  # releases a, holds b
    rest = relay.flush()
    delivered = first + second + rest
    assert delivered == [a, b] or delivered == [b, a] or set(delivered) == {a, b}
    assert relay.reordered == 2
