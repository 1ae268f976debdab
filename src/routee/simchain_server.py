"""Network front end for a simchain node.

Serves the public header-fetch and get-block protocols used by light clients
and the hub daemon, accepts transaction broadcasts, and exposes the mining
and faucet controls that scenario scripts drive. The server's one event
loop (`netio.FrameServer`) answers one request at a time, so requests reach
the node one by one without a lock. Server and client share each frame
body's declaration in `wire`."""

from __future__ import annotations

from .blocks import Block
from .errors import TxRejected
from .netio import FrameConn, FrameServer
from .simchain import SimNode
from .transactions import Transaction
from . import wire


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
        if frame_type == wire.FRAME_HEADERS_REQ:
            req = wire.decode(wire.HeadersRequest, payload)
            headers = self.node.headers_from(req.from_height, req.count)
            reply = wire.Headers([wire.RawHeader(header.serialize()) for header in headers])
            return wire.FRAME_HEADERS_RESP, wire.encode(reply)

        if frame_type == wire.FRAME_BLOCK_REQ:
            height = wire.decode(wire.Height, payload).height
            block = self.node.get_block(height).serialize() if height <= self.node.tip_height else b""
            return wire.FRAME_BLOCK_RESP, block

        if frame_type == wire.FRAME_TX_SUBMIT:
            tx = Transaction.deserialize(wire.decode(wire.RawTx, payload).raw)
            try:
                self.node.submit_tx(tx)
                result = wire.ChainResult(tx.txid(), "", "")
            except TxRejected as exc:
                result = wire.ChainResult(tx.txid(), exc.code, exc.detail)
            return wire.FRAME_TX_RESULT, wire.encode(result)

        if frame_type == wire.FRAME_MINE_REQ:
            for _ in range(wire.decode(wire.MineRequest, payload).count):
                self.node.mine_block()
            return wire.FRAME_MINE_RESP, wire.encode(wire.Height(self.node.tip_height))

        if frame_type == wire.FRAME_TIP_REQ:  # no body
            return wire.FRAME_TIP_RESP, wire.encode(wire.Tip(self.node.tip_height, self.node.chain.tip_hash))

        if frame_type == wire.FRAME_PAY_REQ:
            req = wire.decode(wire.PayRequest, payload)
            try:
                result = wire.ChainResult(self.node.pay(req.address, req.amount, req.fee).txid(), "", "")
            except TxRejected as exc:
                result = wire.ChainResult(bytes(32), exc.code, exc.detail)
            return wire.FRAME_PAY_RESP, wire.encode(result)

        return None


class SimchainClient:
    """Typed client for a running simchain server."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def _request(self, frame_type: int, payload: bytes) -> bytes:
        with FrameConn(self.host, self.port) as conn:
            return conn.request(frame_type, payload)[1]

    def fetch_headers(self, from_height: int, count: int) -> list[bytes]:
        payload = self._request(wire.FRAME_HEADERS_REQ, wire.encode(wire.HeadersRequest(from_height, count)))
        return [header.raw for header in wire.decode(wire.Headers, payload).headers]

    def get_block(self, height: int) -> Block | None:
        payload = self._request(wire.FRAME_BLOCK_REQ, wire.encode(wire.Height(height)))
        return Block.deserialize(payload) if payload else None

    def _accepted(self, frame_type: int, body) -> wire.ChainResult:
        result = wire.decode(wire.ChainResult, self._request(frame_type, wire.encode(body)))
        if result.code:
            raise TxRejected(result.code, result.detail)
        return result

    def submit_tx(self, tx: Transaction) -> None:
        self._accepted(wire.FRAME_TX_SUBMIT, wire.RawTx(tx.serialize()))

    def mine(self, count: int = 1) -> int:
        payload = self._request(wire.FRAME_MINE_REQ, wire.encode(wire.MineRequest(count)))
        return wire.decode(wire.Height, payload).height

    def tip(self) -> tuple[int, bytes]:
        tip = wire.decode(wire.Tip, self._request(wire.FRAME_TIP_REQ, b""))
        return tip.height, tip.tip_hash

    def pay(self, address: bytes, amount: int, fee: int = 0) -> bytes:
        return self._accepted(wire.FRAME_PAY_REQ, wire.PayRequest(address, amount, fee)).txid
