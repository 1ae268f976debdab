"""Framed TCP plumbing shared by the simchain server, the hub daemon, and the
CLI clients. One frame = 4-byte big-endian length, 1-byte type, payload."""

from __future__ import annotations

import socket
import socketserver
import threading

from .errors import MalformedFrame
from .wire import frame_length, pack_frame


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


class FrameConn:
    """Client-side connection: send a typed frame, read one back."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)

    def request(self, frame_type: int, payload: bytes) -> tuple[int, bytes]:
        send_frame(self.sock, frame_type, payload)
        return recv_frame(self.sock)

    def send(self, frame_type: int, payload: bytes) -> None:
        send_frame(self.sock, frame_type, payload)

    def recv(self) -> tuple[int, bytes]:
        return recv_frame(self.sock)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class FrameServer(socketserver.ThreadingTCPServer):
    """Threaded frame server; `handler_fn(frame_type, payload, ctx)` returns
    (frame_type, payload) replies. ctx is a per-connection dict, which
    `close_fn(ctx)`, when given, receives once the connection has ended."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], handler_fn, close_fn=None):
        self.handler_fn = handler_fn
        self.close_fn = close_fn
        super().__init__(address, _FrameRequestHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class _FrameRequestHandler(socketserver.BaseRequestHandler):
    def handle(self):
        ctx: dict = {}
        sock = self.request
        try:
            while True:
                frame_type, payload = recv_frame(sock)
                reply = self.server.handler_fn(frame_type, payload, ctx)
                if reply is not None:
                    send_frame(sock, reply[0], reply[1])
        except (ConnectionError, MalformedFrame, OSError):
            pass
        finally:
            if self.server.close_fn is not None:
                self.server.close_fn(ctx)
