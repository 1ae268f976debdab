"""Client-side helpers: keypairs, signed request construction, and transports
that carry requests to a hub either over TCP or fully in memory. Also the
hub's frame pipeline, which the daemon and the in-memory endpoint share."""

from __future__ import annotations

from . import wire
from .crypto import AUTH_SCHEMES, SCHEMES, Secret, address_of
from .errors import AuthFailure, MalformedFrame, RouteeError, SessionAborted
from .netio import Closing, FrameConn
from .session import ClientHandshake, HubSessionEndpoint, Session
from .wire import (
    FRAME_ENVELOPE,
    FRAME_HANDSHAKE_INIT,
    FRAME_HUB_INFO_REQ,
    MAX_FRAME_SIZE,
    pack_frame,
    unpack_frame,
)

# type byte and handshake init: the largest frame a connection sends before its handshake
PRE_HANDSHAKE_FRAME = 1 + len(wire.encode(wire.HandshakeInit(bytes(32))))


@wire.plain
class Keys:
    """A keypair that signs with its own scheme, an object of `crypto.SCHEMES`."""

    scheme: object
    secret: Secret
    public: bytes

    def __repr__(self) -> str:
        # the secret stays out of logs
        return f"Keys(scheme={self.scheme!r}, public={self.public!r})"

    @property
    def address(self) -> bytes:
        return address_of(self.public)

    @classmethod
    def generate(cls, scheme, rng=None) -> "Keys":
        return cls(scheme, *scheme.generate(rng))

    def sign(self, msg, *context):
        """Sign `msg` over `msg.signing_digest(*context)` and return it. The
        context is the session id of a `QueryUser` and the block's header hash
        of an `InsertBlock`; other requests sign their fields alone."""
        setattr(msg, msg._layout.signature, self.scheme.sign(self.secret, msg.signing_digest(*context)))
        return msg

    def save(self, path: str) -> None:
        """Write a key file of a scheme that signs hub requests."""
        with open(path, "w") as fh:
            fh.write(f"{self.scheme.name}\n{self.secret.hex()}\n{self.public.hex()}\n")

    @classmethod
    def load(cls, path: str) -> "Keys":
        """Read a key file: scheme name, secret hex and public hex, one a line.
        A file that is not one, of a scheme that signs no hub request, or whose
        secret does not sign for its public key, raises `AuthFailure` naming
        the path. The trial signature parses the secret now rather than at the
        first request; the parse is kept."""
        with open(path) as fh:
            lines = [line.strip() for line in fh.read().splitlines() if line.strip()]
        try:
            name, secret, public = lines
            if name not in AUTH_SCHEMES:
                raise ValueError(f"scheme {name!r} signs no hub request")
            scheme = SCHEMES[name]
            keys = cls(scheme, bytes.fromhex(secret), bytes.fromhex(public))
            if not scheme.verify(keys.public, b"", scheme.sign(keys.secret, b"")):
                raise ValueError("the secret does not sign for the public key")
        except (ValueError, TypeError) as exc:
            raise AuthFailure(f"bad key file {path!r}: {exc}") from None
        return keys


class HubFrontEnd:
    """The hub's one frame pipeline, shared by the daemon and the in-memory
    endpoint: hub info and handshakes, then sealed requests opened, decoded,
    applied to the hub, answered and sealed again; a subclass adds writing a
    snapshot. A `RouteeError` is answered with its code; any other exception
    is a fault, which leaves `handle` unanswered (fail-stop)."""

    def __init__(self, hub, endpoint: HubSessionEndpoint):
        self.hub = hub
        self.endpoint = endpoint

    def write_snapshot(self) -> int:
        """Bytes written; an in-memory hub keeps no snapshot file."""
        return 0

    def handle(self, frame_type: int, payload: bytes, ctx: dict) -> tuple[int, bytes] | None:
        """Answer one frame, in its own frame type. `ctx` belongs to one
        connection and holds its session once that connection has shaken
        hands. An envelope before then, or one its session refuses, raises
        and so closes the connection."""
        if frame_type == FRAME_HUB_INFO_REQ:
            info = {"static_public": self.endpoint.static_public, "measurement": self.endpoint.measurement}
            return frame_type, wire.encode_ok(info)
        if frame_type == FRAME_HANDSHAKE_INIT:
            self.drop_session(ctx)
            ack, ctx["session"] = self.endpoint.handle_init(payload)
            return frame_type, ack
        if frame_type != FRAME_ENVELOPE:
            return None
        session = ctx.get("session")
        if session is None:
            raise MalformedFrame("envelope before the handshake")
        plaintext = session.open(payload)
        try:
            req = wire.received_request(plaintext)
            if isinstance(req, wire.Snapshot):
                fields = {"bytes_written": self.write_snapshot()}
            else:
                fields = self.hub.apply_request(req, session.session_id)
            reply = wire.encode_ok(fields)
        except RouteeError as exc:
            reply = wire.encode_err(exc)
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
    the session id it carries. It signs a plan a frame built before that
    frame returns, so its callers see every plan signed, and it raises a fault."""

    def __init__(self, hub, session_rng=None):
        super().__init__(hub, HubSessionEndpoint(rng=session_rng))

    def handle_frame(self, frame: bytes) -> bytes | None:
        frame_type, payload = unpack_frame(frame)
        ctx = {}
        try:
            if frame_type == FRAME_ENVELOPE:
                ctx["session"] = self.endpoint.session_for(payload)
            reply = self.handle(frame_type, payload, ctx)
        except SessionAborted:
            return None  # replay/gap/tamper: no reply at all, the envelope is dead
        self.hub.sign_plan()
        return None if reply is None else pack_frame(*reply)


class LocalConnection:
    """One client's session against a LocalHubEndpoint, optionally passing its
    frames through an adversarial relay."""

    def __init__(self, endpoint: LocalHubEndpoint, relay=None, rng=None):
        self.endpoint = endpoint
        self.relay = relay
        handshake = ClientHandshake(endpoint.endpoint.static_public, rng=rng)
        ack_frame = endpoint.handle_frame(pack_frame(FRAME_HANDSHAKE_INIT, handshake.init_payload()))
        self.session: Session = handshake.complete(unpack_frame(ack_frame)[1])

    def _deliver(self, frames: list[bytes]) -> list[bytes]:
        replies = [self.endpoint.handle_frame(frame) for frame in frames]
        return [reply for reply in replies if reply is not None]

    def send_raw_frame(self, frame: bytes) -> list[bytes]:
        """Push one frame toward the hub (through the relay when present) and
        collect any replies that come back."""
        return self._deliver(self.relay.feed(frame) if self.relay else [frame])

    def request(self, req) -> dict:
        frame = pack_frame(FRAME_ENVELOPE, self.session.seal(wire.encode_request(req)))
        replies = self.send_raw_frame(frame)
        if not replies:
            raise SessionAborted("no-reply", "request lost in transit")
        _, envelope = unpack_frame(replies[-1])
        return wire.decode_response(self.session.open(envelope))

    def flush_relay(self) -> list[bytes]:
        """Deliver every frame the relay still holds."""
        return self._deliver(self.relay.flush()) if self.relay else []


class RemoteHub(Closing):
    """TCP client for a running hub daemon; one session per connection. A
    failed handshake closes the connection before it raises."""

    def __init__(self, host: str, port: int):
        self.conn = FrameConn(host, port)
        try:
            _, info = self.conn.request(FRAME_HUB_INFO_REQ, b"")
            static_public = wire.decode_response(info, {"static_public": bytes})["static_public"]
            handshake = ClientHandshake(static_public)  # checks the published measurement
            _, ack = self.conn.request(FRAME_HANDSHAKE_INIT, handshake.init_payload())
            self.session = handshake.complete(ack)
        except BaseException:
            self.close()
            raise

    @property
    def session_id(self) -> bytes:
        return self.session.session_id

    def request(self, req) -> dict:
        _, reply = self.conn.request(FRAME_ENVELOPE, self.session.seal(wire.encode_request(req)))
        return wire.decode_response(self.session.open(reply))

    def close(self) -> None:
        self.conn.close()
