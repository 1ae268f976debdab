import functools
import random

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

import routee.hub
import routee.snapshot
from routee import wire
from routee.client import Keys, LocalConnection, LocalHubEndpoint
from routee.crypto import DeterministicRng, sha256
from routee.headers import BlockHeader, ChainParams
from routee.errors import (
    FeeTooLow, HandshakeFailure, MalformedFrame, RouteeError, SessionAborted, UnknownType,
)
from routee.scenarios import World
from routee.session import DIR_CLIENT_TO_HUB, DIR_HUB_TO_CLIENT, ClientHandshake, HubSessionEndpoint, Session
from routee.snapshot import TRAILER_SIZE, HubImage, dump_hub, load_hub

from conftest import every_request_kind, mutated, refused_flips


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


@pytest.mark.parametrize("low_order", [bytes(32), b"\x01" + bytes(31)], ids=["zero", "one"])
def test_low_order_key_fails_the_handshake_on_both_sides(low_order):
    hub = World(seed=7).hub
    endpoint = LocalHubEndpoint(hub, session_rng=DeterministicRng(7))
    init = wire.pack_frame(wire.FRAME_HANDSHAKE_INIT, wire.encode(wire.HandshakeInit(low_order)))
    with pytest.raises(HandshakeFailure):
        endpoint.handle_frame(init)
    assert not endpoint.endpoint.sessions
    # a client refuses an ack whose hub key is of low order
    handshake = ClientHandshake(endpoint.endpoint.static_public, rng=DeterministicRng(8))
    ack = wire.decode(wire.HandshakeAck, endpoint.endpoint.handle_init(handshake.init_payload())[0])
    ack.hub_eph = low_order
    with pytest.raises(HandshakeFailure):
        handshake.complete(wire.encode(ack))


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


def test_every_kind_roundtrips():
    requests = every_request_kind()
    assert len({req.kind for req in requests}) == 12
    for req in requests:
        assert wire.decode_request(wire.encode_request(req)) == req


# --- the record builder ---

RECEIVER = b"\x02" * 20


def test_a_record_takes_its_fields_by_position_or_by_name():
    by_position = wire.Payment(b"\x01" * 20, 3, [wire.PaymentItem(RECEIVER, 100, 2)], b"sig")
    by_name = wire.Payment(signature=b"sig", nonce=3, sender_address=b"\x01" * 20,
                           batch=[wire.PaymentItem(routing_fee=2, amount=100, receiver=RECEIVER)])
    assert by_position == by_name
    assert wire.encode_request(by_position) == wire.encode_request(by_name)
    bare = wire.Payment(b"\x01" * 20, 3)  # the defaults: no items, no signature
    assert bare.batch == [] and bare.signature == b""
    assert wire.OkReply().fields == {}


@pytest.mark.parametrize("build", [
    lambda: wire.Settle(b"\x01" * 20, 3, 500),
    lambda: wire.Settle(b"\x01" * 20, 3, 500, 40, b"sig", b"more"),
    lambda: wire.Settle(b"\x01" * 20, 3, 500, 40, tip=1),
    lambda: wire.Settle(b"\x01" * 20, 3, 500, 40, amount=5),
    lambda: wire.QueryLedger(1),
], ids=["missing", "extra", "unknown-name", "given-twice", "none-declared"])
def test_a_record_refuses_a_missing_or_extra_argument(build):
    with pytest.raises(TypeError):
        build()


def test_a_record_field_without_a_wire_format_fails_at_declaration():
    with pytest.raises(TypeError, match="Loose.count"):
        @wire.record
        class Loose:
            nonce: int = wire.fixed("Q")
            count: int = 0


def test_records_never_share_a_default_list_or_dict():
    first, second = wire.Payment(b"\x01" * 20, 0), wire.Payment(b"\x01" * 20, 0)
    first.batch.append(wire.PaymentItem(RECEIVER, 1, 1))
    assert second.batch == [] and first.batch is not second.batch
    replies = [wire.OkReply(), wire.OkReply()]
    replies[0].fields["height"] = 1
    assert replies[1].fields == {}


def test_record_equality_and_repr():
    item = wire.PaymentItem(RECEIVER, 100, 2)
    assert item == wire.PaymentItem(RECEIVER, 100, 2)
    assert item != wire.PaymentItem(RECEIVER, 100, 3)
    assert item != (RECEIVER, 100, 2)
    assert wire.QueryLedger() == wire.QueryLedger() != wire.GetSettlement()  # equal fields, other class
    assert repr(item) == f"PaymentItem(receiver={RECEIVER!r}, amount=100, routing_fee=2)"
    assert repr(wire.Height(3)) == "Height(height=3)" and repr(wire.TipRequest()) == "TipRequest()"
    with pytest.raises(TypeError):  # mutable, so unhashable, as a dataclass is
        hash(item)


def test_a_frozen_plain_class_hashes_its_fields_and_refuses_assignment():
    header = BlockHeader(1, bytes(32), b"\x01" * 32, 600, 0x207FFFFF, 7)
    same = BlockHeader.deserialize(header.serialize())
    assert same == header and hash(same) == hash(header) and {header: 1}[same] == 1
    for attempt in (lambda: setattr(header, "nonce", 8), lambda: delattr(header, "nonce")):
        with pytest.raises(AttributeError):
            attempt()
    assert header.nonce == 7
    assert ChainParams() == ChainParams(2016, 600) != ChainParams.regtest()


def test_a_received_request_digests_as_its_reencoding():
    payment = wire.Payment(b"\x01" * 20, 7, [wire.PaymentItem(RECEIVER, 100, 2)], b"\x05" * 32)
    received = wire.received_request(wire.encode_request(payment))
    # the bytes it arrived in are no field: equality and repr ignore them
    assert received == payment and repr(received) == repr(payment)
    reencoded = wire.decode_request(wire.encode_request(received))
    assert received.signing_digest() == reencoded.signing_digest() == payment.signing_digest()


# every declared record: the protocol's in `wire`, the snapshot's tables in
# `snapshot` and `hub`
DECLARED = {
    value for module in (wire, routee.snapshot, routee.hub) for value in vars(module).values()
    if isinstance(value, type) and "_layout" in vars(value)
}


def _snapshot() -> bytes:
    """A hub with a row in every snapshot table: a pending deposit, a queued
    settle and an outstanding plan among them."""
    harness = World(seed=9)
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 400_000)
    harness.set_boundary(bob)
    harness.hub.add_deposit(bob.sign(wire.AddDeposit(bob.address, harness.nonce(bob))))
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
    return every_request_kind() + tables + [
        wire.PaymentItem(b"\x02" * 20, 30, 7),
        wire.decode(wire.OkReply, wire.encode_ok({"height": 9, "hash": b"\x01" * 32, "missing": None})),
        wire.decode(wire.ErrorReply, wire.encode_err(FeeTooLow("fee 33 below 34"))),
        wire.decode(wire.HandshakeInit, handshake.init_payload()),
        wire.decode(wire.HandshakeAck, ack),
        wire.decode(wire.Envelope, client.seal(b"payload")),
        image,
        wire.HeadersRequest(5, 10),
        wire.Height(3),
        wire.RawTx(image.plan[0].transaction),
        wire.RawBlock(image.headers[0].raw, [wire.RawTx(image.plan[0].transaction)]),
        wire.MineRequest(2),
        wire.TipRequest(),
        wire.PayRequest(b"\x01" * 20, 500, 10),
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


# --- the hub's frame path: the bytes a request arrived in, and records it skips ---

SID = b"\x09" * 8


def _context(req) -> tuple:
    """What a request's signing digest takes besides the request."""
    return (SID,) if isinstance(req, wire.QueryUser) else ()


def _encoded_digest(req) -> bytes:
    """The signing digest as defined: over the encoding without the signature."""
    return sha256(b"routee/v1/" + req._layout.encode(req, signed=False) + b"".join(_context(req)))


def _signs_its_encoding(req) -> bool:
    # an InsertBlock's signature covers the block's header hash instead
    return req._layout.signature is not None and not isinstance(req, wire.InsertBlock)


SIGNED = [req for req in every_request_kind() if _signs_its_encoding(req)]


def test_received_digest_is_the_encoding_digest_of_every_signed_kind():
    assert len(SIGNED) == 6
    for req in SIGNED:
        received = wire.received_request(wire.encode_request(req))
        assert received == req
        assert received.signing_digest(*_context(req)) == _encoded_digest(req) == req.signing_digest(*_context(req))


@settings(max_examples=400, deadline=None)
@given(mutated([wire.encode_request(req) for req in SIGNED]))
def test_received_digest_of_any_decodable_bytes_is_the_encoding_digest(data):
    try:
        received = wire.received_request(data)
    except RouteeError:
        return
    if _signs_its_encoding(received):
        assert received.signing_digest(*_context(received)) == _encoded_digest(wire.decode_request(data))


@pytest.mark.parametrize("change", [
    lambda req, other: setattr(req, "nonce", req.nonce + 1),
    lambda req, other: setattr(req.batch[0], "amount", 150),
    lambda req, other: setattr(req.batch[0], "receiver", other),
], ids=["nonce", "amount", "receiver"])
def test_a_changed_decoded_request_digests_its_new_fields(change):
    harness = World()
    alice, bob, carol = harness.new_user(), harness.new_user(), harness.new_user()
    harness.deposit(alice, 50_000)
    harness.set_boundary(bob)
    harness.set_boundary(carol)
    payment = wire.Payment(alice.address, harness.nonce(alice), [wire.PaymentItem(bob.address, 100, 2)])
    raw = wire.encode_request(alice.sign(payment))
    req = wire.decode_request(raw)
    change(req, carol.address)
    assert req.signing_digest() == _encoded_digest(req) != payment.signing_digest()
    # signed again, the hub takes the new fields and refuses the new signature on the old ones
    alice.sign(req)
    old = wire.decode_request(raw)
    old.signature = req.signature
    conn = LocalConnection(LocalHubEndpoint(harness.hub), rng=DeterministicRng(4))
    with pytest.raises(wire.RemoteError) as exc:
        conn.request(old)
    assert exc.value.code == "auth-failure"
    if req.nonce == payment.nonce:
        assert conn.request(req) == {"accepted": 1}
        assert harness.balance(bob) + harness.balance(carol) == req.batch[0].amount
    else:  # signed correctly, but for a nonce not yet due
        with pytest.raises(wire.RemoteError) as exc:
            conn.request(req)
        assert exc.value.code == "stale-request"


def test_a_flipped_byte_in_a_signed_payment_is_refused():
    harness = World()
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 50_000)
    harness.set_boundary(bob)
    conn = LocalConnection(LocalHubEndpoint(harness.hub), rng=DeterministicRng(4))

    def send(raw):
        envelope = conn.session.seal(raw)
        _, reply = wire.unpack_frame(conn.send_raw_frame(wire.pack_frame(wire.FRAME_ENVELOPE, envelope))[-1])
        return wire.decode_response(conn.session.open(reply))

    payment = alice.sign(wire.Payment(alice.address, harness.nonce(alice), [wire.PaymentItem(bob.address, 100, 2)]))
    # the nonce, the item and the signature; the item count and the
    # signature's length no longer decode
    assert refused_flips(send, payment) == 8 + 36 + len(payment.signature)
    assert send(wire.encode_request(payment)) == {"accepted": 1}


def test_seal_packs_the_envelope_record():
    client, hub, _ = fresh_pair()
    for session, direction in ((client, DIR_CLIENT_TO_HUB), (hub, DIR_HUB_TO_CLIENT)):
        for payload in (b"", b"x" * 100):
            seq = session.send_seq.to_bytes(8, "big")
            ct = AESGCM(session.key).encrypt(direction + seq, payload, session.session_id + seq)
            expected = wire.encode(wire.Envelope(session.session_id, session.send_seq, ct))
            assert session.seal(payload) == expected


def test_open_refuses_short_truncated_and_overlong_envelopes():
    client, hub, _ = fresh_pair()
    env = client.seal(b"payload")
    longer = env[:16] + (len(env) - 19).to_bytes(4, "big") + env[20:]
    for bad in (b"", env[:15], env[:19], env[:20], env[:-1], env + b"\x00", longer):
        with pytest.raises(MalformedFrame):
            hub.open(bad)
    # a malformed envelope spends no sequence number
    assert hub.open(env) == b"payload"


def _reference_ok(fields: dict) -> bytes:
    """An ok reply spelled out: status, count, then each key and tagged value."""
    out = bytes([wire.STATUS_OK]) + len(fields).to_bytes(2, "big")
    for key, value in fields.items():
        out += len(key.encode()).to_bytes(2, "big") + key.encode()
        if value is None:
            out += b"\x00"
        elif isinstance(value, int):
            out += b"\x01" + value.to_bytes(8, "big")
        else:
            out += b"\x02" + len(value).to_bytes(4, "big") + value
    return out


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.text(st.characters(codec="utf-8"), max_size=12),
    st.one_of(st.none(), st.booleans(), st.integers(0, 2**64 - 1), st.binary(max_size=40)),
    max_size=8,
))
def test_encode_ok_packs_the_reply_record(fields):
    assert wire.encode_ok(fields) == wire.encode(wire.OkReply(fields)) == _reference_ok(fields)
    assert wire.decode_response(wire.encode_ok(fields)) == fields


def test_every_parity_script_reply_packs_as_its_record(monkeypatch):
    from test_daemon_cli import _parity_script

    replies = []
    encode_ok = wire.encode_ok
    monkeypatch.setattr(wire, "encode_ok", lambda fields: replies.append(fields) or encode_ok(fields))
    harness = World()
    # the script registers its users itself
    alice, bob = (Keys.generate(harness.suite.auth, harness.rng) for _ in range(2))
    block = harness.node.mine_block()
    conn = LocalConnection(LocalHubEndpoint(harness.hub), rng=DeterministicRng(4))
    for raw in _parity_script(harness.host, alice, bob, block, harness.hub.chain.hash_at(4), conn.session.session_id):
        conn.send_raw_frame(wire.pack_frame(wire.FRAME_ENVELOPE, conn.session.seal(raw)))
    assert len(replies) >= 10
    for fields in replies:
        assert encode_ok(fields) == wire.encode(wire.OkReply(fields)) == _reference_ok(fields)


# Golden vectors: a fast path that drifts from the wire fails here.

def test_sealed_envelope_golden_vector():
    hub = Session(b"\x11" * 8, bytes(range(16)), is_hub=True)
    hub.send_seq = 5
    envelope = hub.seal(b"routee")
    assert envelope.hex() == (
        "1111111111111111" "0000000000000005" "00000016" "dd7884334be0e08dc8f29c69496fe8d5cfb6350c9909"
    )
    client = Session(b"\x11" * 8, bytes(range(16)), is_hub=False)
    client.recv_seq = 5
    assert client.open(envelope) == b"routee"


def test_payment_golden_vector():
    payment = wire.Payment(b"\x01" * 20, 7, [wire.PaymentItem(b"\x02" * 20, 1000, 3)], b"\x05" * 32)
    raw = wire.encode_request(payment)
    assert raw.hex() == (
        "04" + "01" * 20 + "0000000000000007" + "00000001"
        + "02" * 20 + "00000000000003e8" + "0000000000000003" + "00000020" + "05" * 32
    )
    digest = "b39d7d83396f18363ea1a0ec42f8425436ed9b3fc46d0ffd628f0f5f1e6c698d"
    assert payment.signing_digest().hex() == digest
    assert wire.received_request(raw).signing_digest().hex() == digest


def test_ok_reply_golden_vectors():
    assert wire.encode_ok({"accepted": 1}).hex() == "0000010008" + b"accepted".hex() + "010000000000000001"
    query_user = {"address": b"\x01" * 20, "nonce": 3, "balance": 5000, "max_source_block": None,
                  "boundary_block": 4, "settle_address": b"\x02" * 20}
    assert wire.encode_ok(query_user).hex() == (
        "000006"
        "0007" + b"address".hex() + "0200000014" + "01" * 20
        + "0005" + b"nonce".hex() + "010000000000000003"
        + "0007" + b"balance".hex() + "010000000000001388"
        + "0010" + b"max_source_block".hex() + "00"
        + "000e" + b"boundary_block".hex() + "010000000000000004"
        + "000e" + b"settle_address".hex() + "0200000014" + "02" * 20
    )
