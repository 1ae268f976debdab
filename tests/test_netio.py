"""The frame server's event loop: one thread answers every connection, a
capped number of connections are served at a time, a peer that does not
read its replies holds only its own connection, and a callback's fault ends
the loop."""

import socket
import threading
import time

import pytest
from conftest import closed_by_peer

from routee import netio, wire
from routee.errors import MalformedFrame
from routee.netio import FrameConn, FrameServer

WAIT_S = 5.0


def _echo(frame_type, payload, ctx):
    ctx["frames"] = ctx.get("frames", 0) + 1
    return frame_type, payload


@pytest.fixture
def serve():
    """Start a frame server on a background loop; stop every one at teardown."""
    servers = []

    def start(handler_fn=_echo, close_fn=None, limit_fn=None, idle_fn=None):
        server = FrameServer(("127.0.0.1", 0), handler_fn, close_fn, limit_fn, idle_fn)
        server.start_background()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def test_request_refuses_a_reply_in_another_frame_type(serve):
    with FrameConn("127.0.0.1", serve().port) as conn:
        assert conn.request(4, b"x") == (4, b"x")
    other = serve(lambda frame_type, payload, ctx: (frame_type + 1, payload))
    with FrameConn("127.0.0.1", other.port) as conn, pytest.raises(MalformedFrame):
        conn.request(4, b"x")


def test_connection_after_the_cap_is_closed_at_once(serve, monkeypatch):
    monkeypatch.setattr(netio, "MAX_CONNECTIONS", 4)
    server = serve()
    conns = [FrameConn("127.0.0.1", server.port, timeout=WAIT_S) for _ in range(4)]
    for i, conn in enumerate(conns):
        assert conn.request(7, bytes([i])) == (7, bytes([i]))
    with socket.create_connection(("127.0.0.1", server.port), timeout=WAIT_S) as extra:
        assert closed_by_peer(extra)
    conns.pop().close()
    # the loop frees the slot once it reads the close
    deadline = time.monotonic() + WAIT_S
    while True:
        try:
            with FrameConn("127.0.0.1", server.port, timeout=WAIT_S) as conn:
                assert conn.request(7, b"again") == (7, b"again")
            break
        except ConnectionError:
            assert time.monotonic() < deadline
    for conn in conns:
        assert conn.request(7, b"still") == (7, b"still")
        conn.close()


def test_idle_connection_is_closed_and_its_ctx_released(serve, monkeypatch):
    monkeypatch.setattr(netio, "IDLE_TIMEOUT_S", 0.5)
    released = []
    server = serve(close_fn=released.append)
    idle = FrameConn("127.0.0.1", server.port, timeout=WAIT_S)
    busy = FrameConn("127.0.0.1", server.port, timeout=WAIT_S)
    assert idle.request(1, b"x") == (1, b"x")
    start = time.monotonic()
    while time.monotonic() - start < 1.25:  # 2.5 idle timeouts
        assert busy.request(2, b"y") == (2, b"y")
        time.sleep(0.05)
    assert closed_by_peer(idle.sock)
    assert released == [{"frames": 1}]
    assert busy.request(2, b"z") == (2, b"z")
    idle.close()
    busy.close()


def test_frame_over_the_limit_closes_before_its_body(serve):
    server = serve(limit_fn=lambda ctx: 16)
    with FrameConn("127.0.0.1", server.port, timeout=WAIT_S) as conn:
        assert conn.request(1, bytes(15)) == (1, bytes(15))
        conn.sock.sendall((wire.MAX_FRAME_SIZE).to_bytes(4, "big"))
        assert closed_by_peer(conn.sock)


def test_frames_answer_whole_and_in_order_however_the_bytes_arrive(serve):
    server = serve()
    with FrameConn("127.0.0.1", server.port, timeout=WAIT_S) as conn:
        frame = wire.pack_frame(3, b"split payload")
        conn.sock.sendall(frame[:7])  # the length, the type and two payload bytes
        time.sleep(0.2)  # the loop reads the part and waits for the rest
        conn.sock.sendall(frame[7:])
        assert conn.recv() == (3, b"split payload")
        conn.sock.sendall(wire.pack_frame(4, b"first") + wire.pack_frame(5, b"second"))
        assert conn.recv() == (4, b"first")
        assert conn.recv() == (5, b"second")


def test_peer_that_does_not_read_holds_only_its_own_connection(serve):
    reply = bytes(range(256)) * 256  # 64 KiB per reply

    def big(frame_type, payload, ctx):
        return frame_type, payload + reply

    server = serve(big)
    hog = FrameConn("127.0.0.1", server.port, timeout=WAIT_S)
    # 200 requests whose 12.8 MiB of replies overflow both socket buffers
    count = 200
    hog.sock.sendall(b"".join(wire.pack_frame(5, i.to_bytes(2, "big")) for i in range(count)))
    with FrameConn("127.0.0.1", server.port, timeout=WAIT_S) as other:
        for _ in range(3):
            assert other.request(6, b"ok") == (6, b"ok" + reply)
    for i in range(count):
        assert hog.recv() == (5, i.to_bytes(2, "big") + reply)
    hog.close()


def _picky(error):
    def handler(frame_type, payload, ctx):
        if payload == b"boom":
            raise error
        return frame_type, payload
    return handler


def test_handler_error_closes_only_its_connection(serve):
    server = serve(_picky(MalformedFrame("boom")))
    with FrameConn("127.0.0.1", server.port, timeout=WAIT_S) as bad, \
            FrameConn("127.0.0.1", server.port, timeout=WAIT_S) as good:
        bad.send(1, b"boom")
        assert closed_by_peer(bad.sock)
        assert good.request(1, b"fine") == (1, b"fine")
    server.shutdown()
    assert not server.failed


def test_handler_fault_ends_the_loop_and_closes_every_connection(serve, monkeypatch):
    faults = []
    monkeypatch.setattr(threading, "excepthook", faults.append)
    released = []
    server = serve(_picky(KeyError("boom")), close_fn=released.append)
    with FrameConn("127.0.0.1", server.port, timeout=WAIT_S) as bad, \
            FrameConn("127.0.0.1", server.port, timeout=WAIT_S) as other:
        assert other.request(1, b"fine") == (1, b"fine")
        bad.send(1, b"boom")
        assert closed_by_peer(bad.sock)
        assert closed_by_peer(other.sock)
    server.thread.join(WAIT_S)
    assert not server.thread.is_alive() and server.failed
    assert [type(args.exc_value) for args in faults] == [KeyError]
    assert len(released) == 2


def test_shutdown_joins_the_loop_and_closes_connections():
    released = []
    server = FrameServer(("127.0.0.1", 0), _echo, released.append)
    thread = server.start_background()
    conn = FrameConn("127.0.0.1", server.port, timeout=WAIT_S)
    assert conn.request(3, b"a") == (3, b"a")
    server.shutdown()
    assert not thread.is_alive()
    assert released == [{"frames": 1}]
    assert closed_by_peer(conn.sock)
    conn.close()
    server.server_close()
    server.shutdown()  # a second stop after close is harmless


def _wait_for(condition) -> None:
    deadline = time.monotonic() + WAIT_S
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def test_idle_hook_runs_after_each_turn_and_keeps_the_loop_polling(serve):
    frames = []
    turns = []  # frames answered when the hook ran

    def handler(frame_type, payload, ctx):
        frames.append(payload)
        return frame_type, payload

    def idle():
        turns.append(len(frames))
        # busy for the first five turns, then again once two frames are in
        return len(turns) >= 5 and len(frames) != 2

    server = serve(handler, idle_fn=idle)
    # no peer sends anything, yet the loop turns while the hook is busy
    _wait_for(lambda: len(turns) >= 5)
    assert turns[:5] == [0] * 5
    with FrameConn("127.0.0.1", server.port, timeout=WAIT_S) as conn:
        assert conn.request(7, b"a") == (7, b"a")
        # the hook ran after the frame was answered, said it was done, and
        # the loop went back to waiting
        _wait_for(lambda: turns[-1] == 1)
        assert conn.request(7, b"b") == (7, b"b")
        # busy again: the loop keeps asking without another frame
        _wait_for(lambda: turns.count(2) >= 5)
