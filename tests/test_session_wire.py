import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import routee.hub
import routee.snapshot
from routee import wire
from routee.client import build_add_deposit
from routee.crypto import DeterministicRng, sha256
from routee.errors import (
    FeeTooLow, HandshakeFailure, MalformedFrame, RouteeError, SessionAborted, UnknownType,
)
from routee.session import ClientHandshake, HubSessionEndpoint
from routee.snapshot import TRAILER_SIZE, HubImage, dump_hub, load_hub

from conftest import HubHarness, mutated


def fresh_pair(seed=1):
    rng = DeterministicRng(seed)
    endpoint = HubSessionEndpoint(rng=rng)
    handshake = ClientHandshake(endpoint.static_public, rng=rng)
    ack, hub_session = endpoint.handle_init(handshake.init_payload())
    client_session = handshake.complete(ack)
    return client_session, hub_session, endpoint


# --- handshake ---

def test_handshake_derives_equal_keys():
    client, hub, _ = fresh_pair()
    assert client.key == hub.key
    assert client.session_id == hub.session_id
    assert len(client.key) == 16


def test_handshake_confirmation_tamper_fails():
    rng = DeterministicRng(2)
    endpoint = HubSessionEndpoint(rng=rng)
    handshake = ClientHandshake(endpoint.static_public, rng=rng)
    ack, _ = endpoint.handle_init(handshake.init_payload())
    flipped = bytearray(ack)
    flipped[-1] ^= 0x01  # last byte of the key-confirmation MAC
    with pytest.raises(HandshakeFailure):
        handshake.complete(bytes(flipped))


def test_handshake_measurement_mismatch_fails():
    rng = DeterministicRng(3)
    endpoint = HubSessionEndpoint(rng=rng, measurement=b"\xaa" * 32)
    handshake = ClientHandshake(endpoint.static_public, rng=rng)  # expects stub default
    ack, _ = endpoint.handle_init(handshake.init_payload())
    with pytest.raises(HandshakeFailure):
        handshake.complete(ack)


def test_two_clients_get_independent_sessions():
    rng = DeterministicRng(4)
    endpoint = HubSessionEndpoint(rng=rng)
    sessions = []
    for _ in range(2):
        handshake = ClientHandshake(endpoint.static_public, rng=rng)
        ack, _ = endpoint.handle_init(handshake.init_payload())
        sessions.append(handshake.complete(ack))
    assert sessions[0].session_id != sessions[1].session_id
    assert sessions[0].key != sessions[1].key


def test_wrong_static_key_fails_confirmation():
    rng = DeterministicRng(5)
    endpoint = HubSessionEndpoint(rng=rng)
    imposter = HubSessionEndpoint(rng=DeterministicRng(6))
    handshake = ClientHandshake(endpoint.static_public, rng=rng)
    # the imposter relay answers the init with its own static key
    ack, _ = imposter.handle_init(handshake.init_payload())
    with pytest.raises(HandshakeFailure):
        handshake.complete(ack)


# --- seal / open ---

def test_roundtrip_up_to_64k():
    client, hub, _ = fresh_pair()
    rng = random.Random(9)
    for size in (0, 1, 100, 4_096, 64 * 1024):
        payload = rng.randbytes(size)
        assert hub.open(client.seal(payload)) == payload
    for size in (0, 33, 5_000):
        payload = rng.randbytes(size)
        assert client.open(hub.seal(payload)) == payload


def test_replayed_envelope_aborts_with_seq_repeat():
    client, hub, _ = fresh_pair()
    env = client.seal(b"one")
    assert hub.open(env) == b"one"
    with pytest.raises(SessionAborted) as exc:
        hub.open(env)
    assert exc.value.code == "seq-repeat"
    # the session is dead afterwards
    with pytest.raises(SessionAborted):
        hub.open(client.seal(b"two"))


def test_sequence_gap_detected():
    client, hub, _ = fresh_pair()
    env5 = client.seal(b"5")
    env6 = client.seal(b"6")
    env7 = client.seal(b"7")
    assert hub.open(env5) == b"5"
    with pytest.raises(SessionAborted) as exc:
        hub.open(env7)
    assert exc.value.code == "seq-gap"
    del env6


def test_any_bit_flip_fails_authentication():
    client, hub, _ = fresh_pair()
    env = bytearray(client.seal(b"payment fee=100"))
    rng = random.Random(13)
    pos = rng.randrange(16, len(env))  # inside ciphertext or length prefix
    env[pos] ^= 0x40
    with pytest.raises(SessionAborted) as exc:
        hub.open(bytes(env))
    assert exc.value.code in ("auth-tag", "wrong-session", "aborted")


def test_fee_field_tamper_never_changes_fee():
    # flipping ciphertext bits can only kill the envelope, not alter the fee
    client, hub, _ = fresh_pair()
    payment = wire.Payment(b"\x01" * 20, 0, [wire.PaymentItem(b"\x02" * 20, 30, 7)])
    plaintext = wire.encode_request(payment)
    env = bytearray(client.seal(plaintext))
    for bit in range(8):
        tampered = bytearray(env)
        tampered[20] ^= 1 << bit
        with pytest.raises(SessionAborted):
            hub.open(bytes(tampered))


# --- canonical request encoding ---

def _random_request(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return wire.AddUser(rng.randbytes(33), rng.randbytes(20))
    if kind == 1:
        return wire.AddDeposit(rng.randbytes(20), rng.randrange(2**32), rng.randbytes(32))
    if kind == 2:
        return wire.UpdateBoundary(rng.randbytes(20), rng.randrange(2**32),
                                   rng.randrange(2**32), rng.randbytes(32), rng.randbytes(64))
    if kind == 3:
        batch = [wire.PaymentItem(rng.randbytes(20), rng.randrange(2**48), rng.randrange(2**32))
                 for _ in range(rng.randrange(1, 6))]
        return wire.Payment(rng.randbytes(20), rng.randrange(2**32), batch, rng.randbytes(48))
    if kind == 4:
        return wire.Settle(rng.randbytes(20), rng.randrange(2**32),
                           rng.randrange(2**48), rng.randrange(2**32), rng.randbytes(48))
    return wire.Terminate(rng.randbytes(32), rng.randbytes(48))


def test_encode_decode_identity_randomized():
    rng = random.Random(21)
    for _ in range(300):
        req = _random_request(rng)
        assert wire.decode_request(wire.encode_request(req)) == req


def test_truncated_frame_rejected():
    req = wire.Payment(b"\x01" * 20, 3, [wire.PaymentItem(b"\x02" * 20, 30, 7)], b"sig")
    raw = wire.encode_request(req)
    for cut in (1, len(raw) // 2, len(raw) - 1):
        with pytest.raises(MalformedFrame):
            wire.decode_request(raw[:cut])
    with pytest.raises(MalformedFrame):
        wire.decode_request(raw + b"\x00")  # trailing junk


def test_unknown_type_rejected():
    with pytest.raises(UnknownType):
        wire.decode_request(b"\xee")
    # a declared record without a kind, and an object that is no record
    for not_a_request in (wire.PaymentItem(b"\x01" * 20, 5, 1), object()):
        with pytest.raises(UnknownType):
            wire.encode_request(not_a_request)


def test_frame_pack_unpack():
    frame = wire.pack_frame(wire.FRAME_ENVELOPE, b"payload")
    frame_type, payload = wire.unpack_frame(frame)
    assert frame_type == wire.FRAME_ENVELOPE
    assert payload == b"payload"
    with pytest.raises(MalformedFrame):
        wire.unpack_frame(frame[:-1])


def test_response_roundtrip_and_error():
    body = wire.encode_ok({"height": 9, "hash": b"\x01" * 32, "missing": None})
    assert wire.decode_response(body) == {"height": 9, "hash": b"\x01" * 32, "missing": None}
    from routee.errors import FeeTooLow

    err = wire.encode_err(FeeTooLow("fee 33 below 34"))
    with pytest.raises(wire.RemoteError) as exc:
        wire.decode_response(err)
    assert exc.value.code == "fee-too-low"
    with pytest.raises(MalformedFrame):
        wire.decode_response(err + b"\x00")  # trailing junk


def test_signing_digest_covers_fee_and_nonce():
    base = wire.Payment(b"\x01" * 20, 5, [wire.PaymentItem(b"\x02" * 20, 30, 7)])
    fee_changed = wire.Payment(b"\x01" * 20, 5, [wire.PaymentItem(b"\x02" * 20, 30, 8)])
    nonce_changed = wire.Payment(b"\x01" * 20, 6, [wire.PaymentItem(b"\x02" * 20, 30, 7)])
    digests = {base.signing_digest(), fee_changed.signing_digest(), nonce_changed.signing_digest()}
    assert len(digests) == 3


def test_digest_separates_kinds_with_equal_field_bytes():
    addr, nonce = b"\x01" * 20, 5
    # after the kind byte both digests cover the same 28 bytes
    deposit = wire.AddDeposit(addr, nonce).signing_digest()
    query = wire.QueryUser(addr).signing_digest(nonce.to_bytes(8, "big"))
    assert deposit != query
    tip = b"\x07" * 32
    assert wire.Terminate(tip).signing_digest() != wire.InsertBlock.signing_digest_for(tip)


def test_query_user_digest_binds_session_id():
    query = wire.QueryUser(b"\x01" * 20)
    assert query.signing_digest(b"\x00" * 8) != query.signing_digest(b"\x00" * 7 + b"\x01")


def test_signing_digest_leaves_out_only_the_signature():
    settle = wire.Settle(b"\x01" * 20, 3, 500, 40)
    signed = wire.Settle(b"\x01" * 20, 3, 500, 40, b"sig")
    assert settle.signing_digest() == signed.signing_digest()
    assert settle.signing_digest() != wire.Settle(b"\x01" * 20, 3, 501, 40).signing_digest()


def test_encode_refuses_wrong_sized_fields():
    with pytest.raises(ValueError):
        wire.encode_request(wire.AddDeposit(b"\x01" * 19, 0))
    with pytest.raises(ValueError):
        wire.encode_request(wire.Payment(b"\x01" * 20, 0, [wire.PaymentItem(b"\x02" * 21, 1, 2)]))


def _every_kind():
    batch = [wire.PaymentItem(b"\x02" * 20, 30, 7), wire.PaymentItem(b"\x03" * 20, 1, 2)]
    return [
        wire.AddUser(b"k" * 33, b"\x01" * 20),
        wire.AddDeposit(b"\x01" * 20, 1, b"s" * 32),
        wire.UpdateBoundary(b"\x01" * 20, 2, 9, b"\x04" * 32, b"s" * 32),
        wire.Payment(b"\x01" * 20, 3, batch, b"s" * 32),
        wire.Settle(b"\x01" * 20, 4, 500, 40, b"s" * 32),
        wire.QueryLatestBlock(),
        wire.QueryUser(b"\x01" * 20, b"s" * 32),
        wire.QueryLedger(),
        wire.InsertBlock(b"b" * 90, b"h" * 32),
        wire.GetSettlement(),
        wire.Terminate(b"\x05" * 32, b"h" * 32),
        wire.Snapshot(),
        wire.InitStatus(),
        wire.InitRun(),
    ]


def test_every_kind_roundtrips():
    requests = _every_kind()
    assert len({req.kind for req in requests}) == 14
    for req in requests:
        assert wire.decode_request(wire.encode_request(req)) == req


# every declared record: the protocol's in `wire`, the snapshot's tables in
# `snapshot` and `hub`
DECLARED = {
    value for module in (wire, routee.snapshot, routee.hub) for value in vars(module).values()
    if isinstance(value, type) and "_layout" in vars(value)
}


def _snapshot() -> bytes:
    """A hub with a row in every snapshot table: a pending deposit, a queued
    settle and an outstanding plan among them."""
    harness = HubHarness(seed=9)
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 400_000)
    harness.set_boundary(bob)
    harness.hub.add_deposit(build_add_deposit(harness.suite.auth, bob, harness.nonce(bob)))
    harness.settle(alice, 10_000, 1_000)
    harness.settle(alice, 5_000, 1_000)
    return dump_hub(harness.hub)


def _records(snapshot_bytes: bytes) -> list:
    """One valid value of every declared record, most taken from real traffic."""
    client, _, endpoint = fresh_pair()
    handshake = ClientHandshake(endpoint.static_public, rng=DeterministicRng(8))
    ack, _ = endpoint.handle_init(handshake.init_payload())
    image = wire.decode(HubImage, snapshot_bytes[6:-TRAILER_SIZE])
    tables = [value[0] for value in vars(image).values() if isinstance(value, list)]
    return _every_kind() + tables + [
        wire.PaymentItem(b"\x02" * 20, 30, 7),
        wire.decode(wire.OkReply, wire.encode_ok({"height": 9, "hash": b"\x01" * 32, "missing": None})),
        wire.decode(wire.ErrorReply, wire.encode_err(FeeTooLow("fee 33 below 34"))),
        wire.decode(wire.HandshakeInit, handshake.init_payload()),
        wire.decode(wire.HandshakeAck, ack),
        wire.decode(wire.Envelope, client.seal(b"payload")),
        image,
        wire.HeadersRequest(5, 10),
        wire.Headers([image.headers[0]]),
        wire.Height(3),
        wire.RawTx(image.plan[0].transaction),
        wire.RawBlock(image.headers[0].raw, [wire.RawTx(image.plan[0].transaction)]),
        wire.MineRequest(2),
        wire.Tip(4, b"\x06" * 32),
        wire.PayRequest(b"\x01" * 20, 500, 10),
        wire.ChainResult(b"\x07" * 32, "mempool-conflict", "spent"),
    ]


_SNAPSHOT = _snapshot()
_RECORDS = _records(_SNAPSHOT)
_ENCODINGS = [wire.encode(value) for value in _RECORDS] + [_SNAPSHOT]
_DECODERS = [wire.decode_request, wire.decode_response, load_hub] + [
    functools.partial(wire.decode, cls) for cls in sorted(DECLARED, key=lambda cls: cls.__name__)
]


def test_samples_cover_every_declared_record():
    assert {type(value) for value in _RECORDS} == DECLARED
    for value in _RECORDS:
        assert wire.decode(type(value), wire.encode(value)) == value


def _resealed(body: bytes) -> bytes:
    return body + sha256(body)


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    mutated(_ENCODINGS),
    # past the trailer check, so the snapshot decoder itself sees the damage
    mutated([_SNAPSHOT[:-TRAILER_SIZE]]).map(_resealed),
))
def test_decoders_return_a_value_or_a_routee_error(data):
    for decode in _DECODERS:
        try:
            value = decode(data)
        except RouteeError:
            continue
        if decode is load_hub:
            assert value.conservation()["ok"]
