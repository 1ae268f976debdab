"""Framed TCP plumbing shared by the simchain server, the hub daemon, and the
CLI clients. One frame = 4-byte big-endian length, 1-byte type, payload.

A server is one `selectors` loop in one thread. The loop owns the listening
socket and every connection, cuts each connection's bytes into whole frames,
and hands them to the server's callback one at a time: what it touches
needs no lock. Any exception but `OSError` or `RouteeError` ends the loop."""

from __future__ import annotations

import selectors
import socket
import threading
import time

from .errors import MalformedFrame, RouteeError
from .wire import frame_length, pack_frame

MAX_CONNECTIONS = 64  # live connections per server; the next one is accepted and closed at once
IDLE_TIMEOUT_S = 300.0  # a connection that moves no byte either way this long is closed


def send_frame(sock: socket.socket, frame_type: int, payload: bytes) -> None:
    sock.sendall(pack_frame(frame_type, payload))


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    body = recv_exact(sock, frame_length(recv_exact(sock, 4)))
    return body[0], body[1:]


class Closing:
    """Leaving a `with` block calls the object's `close()`."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class FrameConn(Closing):
    """Client-side connection: send a typed frame, read one back. Every
    server here answers a frame in its own frame type, so `request` refuses
    a reply in another type with `MalformedFrame`."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)

    def request(self, frame_type: int, payload: bytes) -> tuple[int, bytes]:
        send_frame(self.sock, frame_type, payload)
        reply_type, reply = recv_frame(self.sock)
        if reply_type != frame_type:
            raise MalformedFrame(f"reply in frame type {reply_type}, not {frame_type}")
        return reply_type, reply

    def send(self, frame_type: int, payload: bytes) -> None:
        send_frame(self.sock, frame_type, payload)

    def recv(self) -> tuple[int, bytes]:
        return recv_frame(self.sock)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _Connection:
    """One accepted socket: bytes read but not yet framed, reply bytes not yet
    sent, and the ctx dict the server's callbacks keep for it."""

    def __init__(self, sock: socket.socket, now: float):
        self.sock = sock
        self.inbox = bytearray()
        self.outbox = bytearray()
        self.ctx: dict = {}
        self.seen = now  # when a byte last moved either way
        self.events = selectors.EVENT_READ

    def sendall(self, data: bytes) -> None:
        # `send_frame` writes replies here; the loop moves them to the socket
        self.outbox += data


class FrameServer:
    """Frame server on one loop; `handler_fn(frame_type, payload, ctx)`
    returns a (frame_type, payload) reply or None. ctx is a per-connection
    dict, which `close_fn(ctx)`, when given, receives once the connection has
    ended. `limit_fn(ctx)`, when given, is the largest frame (type byte
    included) the connection may send next; a longer length prefix closes the
    connection before its body is read. A callback's `RouteeError` closes its
    own connection only; any other exception ends the loop and sets `failed`.
    A connection's next frame waits until its last reply has left, so a peer
    that does not read holds one reply, not the loop.

    `idle_fn()`, when given, runs once per turn of the loop, after that
    turn's frames are answered and their replies flushed: it does a bounded
    slice of deferred work and returns True once none is left. While it
    returns False the loop polls for frames instead of blocking."""

    def __init__(self, address: tuple[str, int], handler_fn, close_fn=None, limit_fn=None, idle_fn=None):
        self.handler_fn = handler_fn
        self.close_fn = close_fn
        self.limit_fn = limit_fn
        self.idle_fn = idle_fn
        self.listener = socket.create_server(address)
        self._wake_r, self._wake_w = socket.socketpair()
        for sock in (self.listener, self._wake_r, self._wake_w):
            sock.setblocking(False)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.listener, selectors.EVENT_READ)
        self.selector.register(self._wake_r, selectors.EVENT_READ)
        self.conns: set[_Connection] = set()
        self.stopping = False
        self.failed = False  # the last loop ended on a fault, not by `shutdown()`
        self.thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.listener.getsockname()[1]

    @property
    def wake_fd(self) -> int:
        """A non-blocking socket; a byte written to it wakes the loop."""
        return self._wake_w.fileno()

    def start_background(self) -> threading.Thread:
        self.thread = threading.Thread(target=self.serve_forever, name="frame-server", daemon=True)
        self.thread.start()
        return self.thread

    def serve_forever(self) -> None:
        """Serve until `shutdown()` or a fault, then close every connection."""
        sweep_at = time.monotonic() + IDLE_TIMEOUT_S
        busy = self.idle_fn is not None  # the first turn asks the hook
        self.failed = True  # until the loop ends by `shutdown()`
        try:
            while not self.stopping:
                timeout = 0.0 if busy else max(0.0, sweep_at - time.monotonic())
                for key, _ in self.selector.select(timeout):
                    if key.data is not None:
                        self._serve(key.data)
                    elif key.fileobj is self.listener:
                        self._accept()
                    else:
                        self._wake_r.recv(64)
                now = time.monotonic()
                if now >= sweep_at:  # close the idle connections
                    for conn in [c for c in self.conns if now - c.seen >= IDLE_TIMEOUT_S]:
                        self._close(conn)
                    sweep_at = min((c.seen for c in self.conns), default=now) + IDLE_TIMEOUT_S
                if self.idle_fn is not None:
                    busy = not self.idle_fn()
            self.failed = False
        finally:
            for conn in list(self.conns):
                self._close(conn)

    def shutdown(self) -> None:
        """Stop the loop: set its flag and wake it. It takes no lock, so a
        signal handler may call it; from another thread it also waits for the
        thread `start_background` started."""
        self.stopping = True
        try:
            self._wake_w.send(b"\0")
        except OSError:  # a wake-up byte is already pending, or the server is closed
            pass
        if self.thread is not None and self.thread is not threading.current_thread():
            self.thread.join()

    def server_close(self) -> None:
        self.selector.close()
        for sock in (self.listener, self._wake_r, self._wake_w):
            sock.close()

    def _accept(self) -> None:
        try:
            sock, _ = self.listener.accept()
        except OSError:
            return
        if len(self.conns) >= MAX_CONNECTIONS:
            sock.close()
            return
        sock.setblocking(False)
        conn = _Connection(sock, time.monotonic())
        self.conns.add(conn)
        self.selector.register(sock, conn.events, conn)

    def _serve(self, conn: _Connection) -> None:
        try:
            if conn.outbox:
                self._flush(conn)
            else:
                data = conn.sock.recv(1 << 16)
                if not data:
                    raise ConnectionError("peer closed")
                conn.inbox += data
            conn.seen = time.monotonic()
            self._answer(conn)
        except (OSError, RouteeError):
            self._close(conn)

    def _answer(self, conn: _Connection) -> None:
        """Answer the whole frames in the inbox while no reply is unsent."""
        inbox = conn.inbox
        while not conn.outbox and len(inbox) >= 4:
            length = frame_length(inbox[:4])
            if self.limit_fn is not None and length > self.limit_fn(conn.ctx):
                raise MalformedFrame(f"frame of {length} bytes over the connection's limit")
            if len(inbox) < 4 + length:
                break
            frame_type, payload = inbox[4], bytes(inbox[5:4 + length])
            del inbox[:4 + length]
            reply = self.handler_fn(frame_type, payload, conn.ctx)
            if reply is not None:
                send_frame(conn, reply[0], reply[1])
                self._flush(conn)
        events = selectors.EVENT_WRITE if conn.outbox else selectors.EVENT_READ
        if events != conn.events:
            conn.events = events
            self.selector.modify(conn.sock, events, conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbox)
        except BlockingIOError:
            return
        del conn.outbox[:sent]

    def _close(self, conn: _Connection) -> None:
        self.conns.discard(conn)
        self.selector.unregister(conn.sock)
        if self.close_fn is not None:
            self.close_fn(conn.ctx)
        conn.sock.close()
