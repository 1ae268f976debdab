"""Network front end for a simchain node.

Serves the public header-fetch and get-block protocols used by light clients
and the hub daemon, accepts transaction broadcasts, and exposes the mining
and faucet controls that scenario scripts drive. It answers as the hub's
front end does: one table maps each request frame type to its body record
and a node call, and the answer, an ok reply or an error reply with the
node's code, goes back in the request's own frame type. The server's one
event loop (`netio.FrameServer`) answers one request at a time, so requests
reach the node one by one without a lock."""

from __future__ import annotations

from .blocks import Block
from .errors import MalformedFrame, RouteeError
from .headers import HEADER_SIZE
from .netio import Closing, FrameConn, FrameServer
from .simchain import SimNode
from .transactions import Transaction
from . import wire


def _submit(node: SimNode, req: wire.RawTx) -> dict:
    tx = Transaction.deserialize(req.raw)
    node.submit_tx(tx)
    return {"txid": tx.txid()}


def _mine(node: SimNode, req: wire.MineRequest) -> dict:
    for _ in range(req.count):
        node.mine_block()
    return {"height": node.tip_height}


# request frame type -> (body record, node call from the body to the reply's fields)
_CALLS = {
    wire.FRAME_HEADERS_REQ: (wire.HeadersRequest, lambda node, req: {
        "headers": b"".join([h.serialize() for h in node.headers_from(req.from_height, req.count)])}),
    wire.FRAME_BLOCK_REQ: (wire.Height, lambda node, req: {
        "block": node.get_block(req.height).serialize() if req.height <= node.tip_height else None}),
    wire.FRAME_TX_SUBMIT: (wire.RawTx, _submit),
    wire.FRAME_MINE_REQ: (wire.MineRequest, _mine),
    wire.FRAME_TIP_REQ: (wire.TipRequest, lambda node, req: {
        "height": node.tip_height, "hash": node.chain.tip_hash}),
    wire.FRAME_PAY_REQ: (wire.PayRequest, lambda node, req: {
        "txid": node.pay(req.address, req.amount, req.fee).txid()}),
}


class SimchainServer:
    def __init__(self, node: SimNode, address: tuple[str, int] = ("127.0.0.1", 0)):
        self.node = node
        self.server = FrameServer(address, self._handle)

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> None:
        self.server.start_background()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()

    def _handle(self, frame_type: int, payload: bytes, ctx: dict):
        if frame_type not in _CALLS:
            return None
        body, call = _CALLS[frame_type]
        try:
            reply = wire.encode_ok(call(self.node, wire.decode(body, payload)))
        except RouteeError as exc:
            reply = wire.encode_err(exc)
        return frame_type, reply


class SimchainClient(Closing):
    """Typed client for a running simchain server. Its one connection opens
    on the first call; `close()`, or leaving a `with` block, closes it. A
    refused transaction raises `wire.RemoteError` with the node's code, and
    a reply without the fields a call reads raises `MalformedFrame`."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.conn: FrameConn | None = None

    def _request(self, frame_type: int, body, kinds: dict) -> dict:
        """Send `body` and return the ok reply's fields, checked against `kinds`."""
        if self.conn is None:
            self.conn = FrameConn(self.host, self.port)
        return wire.decode_response(self.conn.request(frame_type, wire.encode(body))[1], kinds)

    def fetch_headers(self, from_height: int, count: int) -> list[bytes]:
        fields = self._request(wire.FRAME_HEADERS_REQ, wire.HeadersRequest(from_height, count), {"headers": bytes})
        raw = fields["headers"]
        if len(raw) % HEADER_SIZE:
            raise MalformedFrame(f"{len(raw)} header bytes")
        return [raw[pos:pos + HEADER_SIZE] for pos in range(0, len(raw), HEADER_SIZE)]

    def get_block(self, height: int) -> Block | None:
        raw = self._request(wire.FRAME_BLOCK_REQ, wire.Height(height), {"block": (bytes, type(None))})["block"]
        return None if raw is None else Block.deserialize(raw)

    def submit_tx(self, tx: Transaction) -> None:
        self._request(wire.FRAME_TX_SUBMIT, wire.RawTx(tx.serialize()), {})

    def mine(self, count: int = 1) -> int:
        return self._request(wire.FRAME_MINE_REQ, wire.MineRequest(count), {"height": int})["height"]

    def tip(self) -> tuple[int, bytes]:
        fields = self._request(wire.FRAME_TIP_REQ, wire.TipRequest(), {"height": int, "hash": bytes})
        return fields["height"], fields["hash"]

    def pay(self, address: bytes, amount: int, fee: int = 0) -> bytes:
        return self._request(wire.FRAME_PAY_REQ, wire.PayRequest(address, amount, fee), {"txid": bytes})["txid"]

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
