"""The block source over TCP: each request is answered with an ok or error
reply in its own frame type, a client keeps one connection for all its calls,
and hub init fetches through that one connection in header batches."""

import json

import pytest
from conftest import mutated
from hypothesis import given, settings, strategies as st

from routee import cli, daemon as daemon_mod, lightclient, simchain_server, wire
from routee.daemon import DaemonConfig, HubDaemon
from routee.errors import MalformedFrame, RouteeError
from routee.headers import ChainParams
from routee.netio import FrameConn
from routee.simchain import SimNode
from routee.simchain_server import SimchainClient, SimchainServer


@pytest.fixture
def served():
    """A node with three blocks mined, served on a background loop."""
    node = SimNode(ChainParams.regtest(), seed=3)
    node.mine_blocks(3)
    server = SimchainServer(node)
    server.start()
    yield node, server
    server.stop()


def test_one_connection_serves_every_call_and_survives_errors(served):
    node, server = served
    with SimchainClient("127.0.0.1", server.port) as client:
        assert client.tip() == (3, node.chain.tip_hash)
        conn = client.conn
        assert client.fetch_headers(1, 2) == [h.serialize() for h in node.headers_from(1, 2)]
        assert client.fetch_headers(9, 2) == []
        assert client.get_block(2).header == node.blocks[2].header
        assert client.get_block(4) is None
        assert len(client.pay(b"\x01" * 20, 500)) == 32
        with pytest.raises(wire.RemoteError) as exc:
            client.submit_tx(node.mempool[0])  # its inputs are already spent in the mempool
        assert exc.value.code == "mempool-conflict"
        # a body that does not decode gets an error reply, not a closed connection
        assert conn.request(wire.FRAME_TIP_REQ, b"x") == (
            wire.FRAME_TIP_REQ, wire.encode_err(MalformedFrame("1 trailing bytes")))
        assert client.mine(2) == 5 and node.mempool == []
        assert client.conn is conn
    assert conn.sock.fileno() == -1
    assert server._handle(wire.FRAME_HUB_INFO_REQ, b"", {}) is None  # not a block source frame


def test_refused_faucet_payment_exits_2_with_the_node_code(served, capsys):
    node, server = served
    code = cli.simchain_main(["--json", "pay", "--addr", f"127.0.0.1:{server.port}", "--to", "ee" * 20,
                              "--amount", str(1 << 62)])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "insufficient-funds", "detail": f"wallet holds {node.wallet.balance()}"}


def _init_daemon(server) -> HubDaemon:
    return HubDaemon(DaemonConfig(overrides={"simchain_port": server.port, "host_pubkey_hex": "00" * 32}))


def test_init_opens_one_connection_and_closes_it_before_listening(served, monkeypatch):
    node, server = served
    node.mine_blocks(27)  # 30 blocks
    opened, open_at_listen = [], []

    class CountedConn(FrameConn):
        def __init__(self, *args):
            super().__init__(*args)
            opened.append(self)

    real_server = daemon_mod.FrameServer

    def listen(*args):
        open_at_listen.extend(conn for conn in opened if conn.sock.fileno() != -1)
        return real_server(*args)

    monkeypatch.setattr(simchain_server, "FrameConn", CountedConn)
    monkeypatch.setattr(daemon_mod, "FrameServer", listen)
    hub_daemon = _init_daemon(server)
    try:
        assert hub_daemon.hub.chain.tip_hash == node.chain.tip_hash
        assert len(opened) == 1 and open_at_listen == []
    finally:
        hub_daemon.server.server_close()


def test_init_fetches_headers_in_batches(served, monkeypatch):
    node, server = served
    node.mine_blocks(47)  # 50 blocks, 51 headers
    monkeypatch.setattr(lightclient, "HEADER_BATCH", 16)
    asked = []
    request = SimchainClient._request

    def counted(client, frame_type, body, kinds):
        if frame_type == wire.FRAME_HEADERS_REQ:
            asked.append(body.count)
        return request(client, frame_type, body, kinds)

    monkeypatch.setattr(SimchainClient, "_request", counted)
    hub_daemon = _init_daemon(server)
    try:
        assert asked == [16, 16, 16, 16]
        assert hub_daemon.hub.chain.tip_hash == node.chain.tip_hash
    finally:
        hub_daemon.server.server_close()


# --- hostile input ---

def _bodies(node: SimNode) -> list[bytes]:
    """A valid body of every request frame type but mining."""
    tx = node.blocks[1].txs[0]
    return [
        wire.encode(wire.HeadersRequest(1, 3)),
        wire.encode(wire.Height(2)),
        wire.encode(wire.RawTx(tx.serialize())),
        b"",
        wire.encode(wire.PayRequest(b"\x01" * 20, 1_000, 10)),
    ]


def test_server_answers_any_payload_with_a_reply(served):
    node, server = served
    frame_types = [frame_type for frame_type in simchain_server._CALLS if frame_type != wire.FRAME_MINE_REQ]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(frame_types), st.binary(max_size=64) | mutated(_bodies(node)))
    def answer(frame_type, payload):
        reply_type, reply = server._handle(frame_type, payload, {})
        assert reply_type == frame_type
        try:
            assert isinstance(wire.decode_response(reply), dict)
        except wire.RemoteError:
            pass

    answer()


class _Stub:
    """A connection that answers every request with the same frame."""

    def __init__(self, frame_type, payload):
        self.frame_type, self.payload = frame_type, payload

    def request(self, frame_type, payload):
        return (frame_type if self.frame_type is None else self.frame_type), self.payload

    def close(self):
        pass


def test_client_returns_a_value_or_raises_a_routee_error(served):
    node, _ = served
    tx = node.blocks[1].txs[0]
    calls = [
        lambda client: client.fetch_headers(0, 5),
        lambda client: client.get_block(1),
        lambda client: client.submit_tx(tx),
        lambda client: client.mine(1),
        lambda client: client.tip(),
        lambda client: client.pay(b"\x01" * 20, 5),
    ]
    values = st.none() | st.integers(0, (1 << 64) - 1) | st.binary(max_size=200)
    names = st.sampled_from(["headers", "block", "txid", "height", "hash", "other"])
    valid = [
        wire.encode_ok({"headers": b"".join(h.serialize() for h in node.headers_from(0, 2))}),
        wire.encode_ok({"block": node.blocks[1].serialize()}),
        wire.encode_ok({"height": 3, "hash": node.chain.tip_hash}),
        wire.encode_err(RouteeError("refused")),
    ]
    replies = st.binary(max_size=64) | st.dictionaries(names, values, max_size=3).map(wire.encode_ok) | mutated(valid)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(calls), st.none() | st.integers(0, 255), replies)
    def call(method, frame_type, payload):
        client = SimchainClient("127.0.0.1", 1)
        client.conn = _Stub(frame_type, payload)
        try:
            method(client)
        except RouteeError:
            pass

    call()
