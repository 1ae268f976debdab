"""Client-side helpers: keypairs, signed request construction, and transports
that carry requests to a hub either over TCP or fully in memory. Also the
hub's frame pipeline, which the daemon and the in-memory endpoint share."""

from __future__ import annotations

from dataclasses import dataclass

from . import wire
from .crypto import address_of
from .errors import HandshakeFailure, InitFailure, MalformedFrame, RouteeError, SessionAborted
from .netio import FrameConn
from .session import ClientHandshake, HubSessionEndpoint, Session
from .wire import (
    FRAME_ENVELOPE,
    FRAME_HANDSHAKE_ACK,
    FRAME_HANDSHAKE_INIT,
    FRAME_HUB_INFO_REQ,
    MAX_FRAME_SIZE,
    pack_frame,
    unpack_frame,
)

# type byte and handshake init: the largest frame a connection sends before its handshake
PRE_HANDSHAKE_FRAME = 1 + len(wire.encode(wire.HandshakeInit(bytes(32))))


@dataclass
class Keys:
    scheme_name: str
    secret: bytes
    public: bytes

    @property
    def address(self) -> bytes:
        return address_of(self.public)

    @classmethod
    def generate(cls, scheme, rng=None) -> "Keys":
        sk, pk = scheme.generate(rng)
        return cls(scheme.name, sk, pk)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.scheme_name}\n{self.secret.hex()}\n{self.public.hex()}\n")

    @classmethod
    def load(cls, path: str) -> "Keys":
        with open(path) as fh:
            lines = [line.strip() for line in fh.read().splitlines() if line.strip()]
        return cls(lines[0], bytes.fromhex(lines[1]), bytes.fromhex(lines[2]))


def _sign(scheme, keys: Keys, digest: bytes) -> bytes:
    return scheme.sign(keys.secret, digest)


def build_add_deposit(scheme, keys: Keys, nonce: int) -> wire.AddDeposit:
    msg = wire.AddDeposit(keys.address, nonce)
    msg.signature = _sign(scheme, keys, msg.signing_digest())
    return msg


def build_update_boundary(scheme, keys: Keys, nonce: int, number: int, block_hash: bytes) -> wire.UpdateBoundary:
    msg = wire.UpdateBoundary(keys.address, nonce, number, block_hash)
    msg.signature = _sign(scheme, keys, msg.signing_digest())
    return msg


def build_payment(scheme, keys: Keys, nonce: int, batch: list[wire.PaymentItem]) -> wire.Payment:
    msg = wire.Payment(keys.address, nonce, batch)
    msg.signature = _sign(scheme, keys, msg.signing_digest())
    return msg


def build_settle(scheme, keys: Keys, nonce: int, amount: int, fee: int) -> wire.Settle:
    msg = wire.Settle(keys.address, nonce, amount, fee)
    msg.signature = _sign(scheme, keys, msg.signing_digest())
    return msg


def build_query_user(scheme, keys: Keys, session_id: bytes) -> wire.QueryUser:
    msg = wire.QueryUser(keys.address)
    msg.signature = _sign(scheme, keys, msg.signing_digest(session_id))
    return msg


def build_insert_block(scheme, host_keys: Keys, block_bytes: bytes, header_hash: bytes) -> wire.InsertBlock:
    msg = wire.InsertBlock(block_bytes)
    msg.host_signature = _sign(scheme, host_keys, wire.InsertBlock.signing_digest_for(header_hash))
    return msg


def build_terminate(scheme, host_keys: Keys, tip_hash: bytes) -> wire.Terminate:
    msg = wire.Terminate(tip_hash)
    msg.host_signature = _sign(scheme, host_keys, msg.signing_digest())
    return msg


class HubFrontEnd:
    """The hub's one frame pipeline, shared by the daemon and the in-memory
    endpoint: hub info and handshakes, then sealed requests opened, decoded,
    applied to the hub, answered and sealed again. Subclasses supply what a
    deployment owns beyond the hub: writing a snapshot and running init."""

    def __init__(self, hub, endpoint: HubSessionEndpoint):
        self.hub = hub
        self.endpoint = endpoint

    def write_snapshot(self) -> int:
        """Bytes written; an in-memory hub keeps no snapshot file."""
        return 0

    def run_init(self) -> None:
        raise InitFailure("no block source to initialize from")

    def handle(self, frame_type: int, payload: bytes, ctx: dict) -> tuple[int, bytes] | None:
        """Answer one frame. `ctx` belongs to one connection and holds its
        session once that connection has shaken hands; an envelope before
        then raises `MalformedFrame`, which closes the connection."""
        if frame_type == FRAME_HUB_INFO_REQ:
            body = wire.encode_ok(
                {"static_public": self.endpoint.static_public, "measurement": self.endpoint.measurement}
            )
            return wire.FRAME_HUB_INFO_RESP, body
        if frame_type == FRAME_HANDSHAKE_INIT:
            self.drop_session(ctx)
            ack, ctx["session"] = self.endpoint.handle_init(payload)
            return FRAME_HANDSHAKE_ACK, ack
        if frame_type != FRAME_ENVELOPE:
            return None
        session = ctx.get("session")
        if session is None:
            raise MalformedFrame("envelope before the handshake")
        try:
            plaintext = session.open(payload)
        except SessionAborted:
            # replay/gap/tamper: no reply at all, the envelope is dead
            return None
        try:
            req = wire.decode_request(plaintext)
            if isinstance(req, wire.Snapshot):
                fields = {"bytes_written": self.write_snapshot()}
            elif isinstance(req, wire.InitRun):
                already = self.hub.chain is not None
                if not already:
                    self.run_init()
                fields = {"initialized": 1, "already": 1} if already else {"initialized": 1}
            else:
                fields = self.hub.apply_request(req, session.session_id)
            reply = wire.encode_ok(fields)
        except RouteeError as exc:
            reply = wire.encode_err(exc)
        except Exception as exc:  # never let one request kill the connection
            reply = wire.encode_err(RouteeError(str(exc)))
        return FRAME_ENVELOPE, session.seal(reply)

    def frame_limit(self, ctx: dict) -> int:
        """The largest frame a connection may send next: before its handshake,
        only a hub-info request (empty) or a handshake init."""
        return MAX_FRAME_SIZE if "session" in ctx else PRE_HANDSHAKE_FRAME

    def drop_session(self, ctx: dict) -> None:
        """Forget a connection's session: when it closes or shakes hands again."""
        session = ctx.pop("session", None)
        if session is not None:
            self.endpoint.sessions.pop(session.session_id, None)


class LocalHubEndpoint(HubFrontEnd):
    """In-memory hub front end speaking whole frames, for tests and scenario
    scripts. It has no connections, so every envelope finds its session by
    the session id it carries."""

    def __init__(self, hub, session_rng=None):
        super().__init__(hub, HubSessionEndpoint(rng=session_rng))

    def handle_frame(self, frame: bytes) -> bytes | None:
        frame_type, payload = unpack_frame(frame)
        ctx = {}
        if frame_type == FRAME_ENVELOPE:
            try:
                ctx["session"] = self.endpoint.session_for(payload)
            except SessionAborted:
                return None
        reply = self.handle(frame_type, payload, ctx)
        return None if reply is None else pack_frame(*reply)


class LocalConnection:
    """One client's session against a LocalHubEndpoint, optionally passing its
    frames through an adversarial relay."""

    def __init__(self, endpoint: LocalHubEndpoint, relay=None, rng=None):
        self.endpoint = endpoint
        self.relay = relay
        self.replies: list[bytes] = []
        handshake = ClientHandshake(endpoint.endpoint.static_public, rng=rng)
        ack_frame = endpoint.handle_frame(pack_frame(FRAME_HANDSHAKE_INIT, handshake.init_payload()))
        if ack_frame is None:
            raise HandshakeFailure("no ack")
        _, ack = unpack_frame(ack_frame)
        self.session: Session = handshake.complete(ack)

    def send_raw_frame(self, frame: bytes) -> list[bytes]:
        """Push one frame toward the hub (through the relay when present) and
        collect any replies that come back."""
        frames = self.relay.feed(frame) if self.relay else [frame]
        replies = []
        for delivered in frames:
            reply = self.endpoint.handle_frame(delivered)
            if reply is not None:
                replies.append(reply)
        self.replies.extend(replies)
        return replies

    def request(self, req) -> dict:
        frame = pack_frame(FRAME_ENVELOPE, self.session.seal(wire.encode_request(req)))
        replies = self.send_raw_frame(frame)
        if not replies:
            raise SessionAborted("no-reply", "request lost in transit")
        _, envelope = unpack_frame(replies[-1])
        return wire.decode_response(self.session.open(envelope))

    def flush_relay(self) -> list[bytes]:
        if not self.relay:
            return []
        replies = []
        for frame in self.relay.flush():
            reply = self.endpoint.handle_frame(frame)
            if reply is not None:
                replies.append(reply)
        self.replies.extend(replies)
        return replies


class RemoteHub:
    """TCP client for a running hub daemon; one session per connection."""

    def __init__(self, host: str, port: int):
        self.conn = FrameConn(host, port)
        _, info_body = self.conn.request(FRAME_HUB_INFO_REQ, b"")
        info = wire.decode_response(info_body)
        handshake = ClientHandshake(info["static_public"], info["measurement"])
        frame_type, ack = self.conn.request(FRAME_HANDSHAKE_INIT, handshake.init_payload())
        if frame_type != FRAME_HANDSHAKE_ACK:
            raise HandshakeFailure(f"unexpected frame {frame_type}")
        self.session = handshake.complete(ack)

    @property
    def session_id(self) -> bytes:
        return self.session.session_id

    def request(self, req) -> dict:
        envelope = self.session.seal(wire.encode_request(req))
        frame_type, reply = self.conn.request(FRAME_ENVELOPE, envelope)
        if frame_type != FRAME_ENVELOPE:
            raise SessionAborted("no-reply", f"frame {frame_type}")
        return wire.decode_response(self.session.open(reply))

    def close(self) -> None:
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
