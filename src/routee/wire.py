"""Canonical encoding of every hub request and reply, plus the outer frame.

Frame: 4-byte big-endian length, 1-byte frame type, payload (`netio` moves
frames over sockets with the same packing and length check). Handshake and
envelope frames carry the encrypted session traffic; the other frame types
serve public chain data unencrypted.

Each request is declared once, as a dataclass whose fields name their wire
format. It travels as its kind byte, its fixed-width fields, an optional
2-byte count and repeated items, then its trailing byte strings, each behind
a 4-byte length, with the signature last; integers are big-endian. The
declarations compile to `struct.Struct`s at import, and the encoder, the
decoder and the signing digests all derive from them.

A signing digest is sha256(b"routee/v1/" + the encoding without the
signature): the leading kind byte keeps the domains of different requests
apart, and a relay can alter no signed field (nonces, routing fees). A
`QueryUser` digest appends the session id, binding the query to one session;
an `InsertBlock` is signed over the block's header hash.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field
from operator import attrgetter

from .codec import Reader, Writer
from .crypto import sha256
from .errors import MalformedFrame, RouteeError, UnknownType

# outer frame types
FRAME_HANDSHAKE_INIT = 1
FRAME_HANDSHAKE_ACK = 2
FRAME_ENVELOPE = 3
FRAME_HEADERS_REQ = 4
FRAME_HEADERS_RESP = 5
FRAME_BLOCK_REQ = 6
FRAME_BLOCK_RESP = 7
FRAME_TX_SUBMIT = 8
FRAME_TX_RESULT = 9
FRAME_MINE_REQ = 10
FRAME_MINE_RESP = 11
FRAME_TIP_REQ = 12
FRAME_TIP_RESP = 13
FRAME_PAY_REQ = 14
FRAME_PAY_RESP = 15
FRAME_HUB_INFO_REQ = 16
FRAME_HUB_INFO_RESP = 17

MAX_FRAME_SIZE = 64 * 1024 * 1024


def frame_length(prefix: bytes) -> int:
    """The length a 4-byte frame prefix announces, type byte included."""
    length = int.from_bytes(prefix, "big")
    if not 1 <= length <= MAX_FRAME_SIZE:
        raise MalformedFrame(f"bad frame length {length}")
    return length


def pack_frame(frame_type: int, payload: bytes) -> bytes:
    if len(payload) + 1 > MAX_FRAME_SIZE:
        raise MalformedFrame("frame too large")
    return (len(payload) + 1).to_bytes(4, "big") + bytes([frame_type]) + payload


def unpack_frame(data: bytes) -> tuple[int, bytes]:
    if len(data) < 5:
        raise MalformedFrame("short frame")
    if frame_length(data[:4]) != len(data) - 4:
        raise MalformedFrame("frame length mismatch")
    return data[4], data[5:]


# --- request declarations ---

_SIGNING_CONTEXT = b"routee/v1/"
_LENGTH = struct.Struct(">I")
_TRAILING = "trailing"
_SIGNATURE = "signature"


def fixed(code: str):
    """A fixed-width field, given as one `struct` format code."""
    return field(metadata={"wire": code})


def repeated(item_cls: type):
    """A list of items whose fields are all fixed, behind a 2-byte count."""
    return field(default_factory=list, metadata={"wire": item_cls})


def trailing():
    """A byte string behind a 4-byte length, after the fixed fields and items."""
    return field(metadata={"wire": _TRAILING})


def trailing_signature():
    """The last trailing byte string, which the signing digest leaves out."""
    return field(default=b"", metadata={"wire": _SIGNATURE})


def _sized(names: list[str], codes: list[str]) -> list[tuple[str, int]]:
    """(name, size) of every byte-string field, for the encoder's checks."""
    return [(name, int(code[:-1])) for name, code in zip(names, codes) if code.endswith("s")]


def _check_sizes(obj, sized: list[tuple[str, int]]) -> None:
    for name, size in sized:
        if len(getattr(obj, name)) != size:
            raise ValueError(f"{name}: expected {size} bytes, got {len(getattr(obj, name))}")


class _Layout:
    """A request declaration compiled to `struct`s. The head struct holds the
    kind byte, the fixed fields and, when the request has items, their count."""

    def __init__(self, cls: type):
        self.cls = cls
        head, codes, self.trailing = [], [], []
        self.item = None
        signed = False
        for f in dataclasses.fields(cls):
            spec = f.metadata["wire"]
            if isinstance(spec, type):
                self.item = f.name
                self.item_cls = spec
                item_names = [i.name for i in dataclasses.fields(spec)]
                item_codes = [i.metadata["wire"] for i in dataclasses.fields(spec)]
                self.item_struct = struct.Struct(">" + "".join(item_codes))
                # attrgetter of two or more names returns a tuple
                self.item_values = attrgetter(*item_names)
                self.item_sized = _sized(item_names, item_codes)
            elif spec in (_TRAILING, _SIGNATURE):
                self.trailing.append(f.name)
                signed = spec == _SIGNATURE
            else:
                head.append(f.name)
                codes.append(spec)
        self.head = struct.Struct(">B" + "".join(codes) + ("H" if self.item else ""))
        self.head_values = attrgetter("kind", *head) if head else lambda req: (req.kind,)
        self.head_sized = _sized(head, codes)
        self.unsigned_trailing = self.trailing[:-1] if signed else self.trailing
        wire_order = head + ([self.item] if self.item else []) + self.trailing
        names = [f.name for f in dataclasses.fields(cls)]
        # decode builds values in wire order; the constructor takes field order
        self.order = None if wire_order == names else [wire_order.index(n) for n in names]

    def encode(self, req, signed: bool = True) -> bytes:
        if self.item is None:
            out = self.head.pack(*self.head_values(req))
        else:
            batch = getattr(req, self.item)
            pack, values = self.item_struct.pack, self.item_values
            out = self.head.pack(*self.head_values(req), len(batch))
            out += b"".join([pack(*values(item)) for item in batch])
        for name in self.trailing if signed else self.unsigned_trailing:
            value = getattr(req, name)
            out += _LENGTH.pack(len(value)) + value
        return out

    def check_sizes(self, req) -> None:
        """`struct` pads or cuts a wrong-sized byte string; refuse it instead."""
        _check_sizes(req, self.head_sized)
        if self.item is not None:
            for item in getattr(req, self.item):
                _check_sizes(item, self.item_sized)

    def decode(self, data: bytes):
        head = self.head
        values = head.unpack_from(data)[1:]
        pos = head.size
        if self.item is not None:
            end = pos + values[-1] * self.item_struct.size
            if end > len(data):
                raise MalformedFrame(f"truncated: {values[-1]} items")
            cls = self.item_cls
            values = values[:-1] + ([cls(*item) for item in self.item_struct.iter_unpack(data[pos:end])],)
            pos = end
        for _ in self.trailing:
            (size,) = _LENGTH.unpack_from(data, pos)
            pos += _LENGTH.size
            value = data[pos:pos + size]
            if len(value) != size:
                raise MalformedFrame(f"truncated: need {size} bytes at offset {pos}")
            values += (value,)
            pos += size
        if pos != len(data):
            raise MalformedFrame(f"{len(data) - pos} trailing bytes")
        if self.order is not None:
            values = [values[i] for i in self.order]
        return self.cls(*values)


_LAYOUTS: dict[int, _Layout] = {}


def request(kind: int):
    """Class decorator: declare a request dataclass and compile its layout."""

    def declare(cls):
        cls = dataclass(cls)
        cls.kind = kind
        cls._layout = _LAYOUTS[kind] = _Layout(cls)
        return cls

    return declare


def _signing_digest(self) -> bytes:
    # assigned in each signed request's class body, not inherited: the
    # benchmark's tracer wraps `signing_digest` per class
    return sha256(_SIGNING_CONTEXT + self._layout.encode(self, signed=False))


@request(1)
class AddUser:
    public_key: bytes = trailing()
    settle_address: bytes = fixed("20s")


@request(2)
class AddDeposit:
    user_address: bytes = fixed("20s")
    nonce: int = fixed("Q")
    signature: bytes = trailing_signature()
    signing_digest = _signing_digest


@request(3)
class UpdateBoundary:
    user_address: bytes = fixed("20s")
    nonce: int = fixed("Q")
    block_number: int = fixed("Q")
    block_hash: bytes = fixed("32s")
    signature: bytes = trailing_signature()
    signing_digest = _signing_digest


@dataclass
class PaymentItem:
    receiver: bytes = fixed("20s")
    amount: int = fixed("Q")
    routing_fee: int = fixed("Q")


@request(4)
class Payment:
    sender_address: bytes = fixed("20s")
    nonce: int = fixed("Q")
    batch: list[PaymentItem] = repeated(PaymentItem)
    signature: bytes = trailing_signature()
    signing_digest = _signing_digest


@request(5)
class Settle:
    user_address: bytes = fixed("20s")
    nonce: int = fixed("Q")
    amount: int = fixed("Q")
    fee: int = fixed("Q")
    signature: bytes = trailing_signature()
    signing_digest = _signing_digest


@request(6)
class QueryLatestBlock:
    pass


@request(7)
class QueryUser:
    user_address: bytes = fixed("20s")
    signature: bytes = trailing_signature()

    def signing_digest(self, session_id: bytes) -> bytes:
        return sha256(_SIGNING_CONTEXT + self._layout.encode(self, signed=False) + session_id)


@request(8)
class QueryLedger:
    pass


@request(9)
class InsertBlock:
    block_bytes: bytes = trailing()
    host_signature: bytes = trailing_signature()

    @staticmethod
    def signing_digest_for(header_hash: bytes) -> bytes:
        return sha256(_SIGNING_CONTEXT + bytes([InsertBlock.kind]) + header_hash)


@request(10)
class GetSettlement:
    pass


@request(11)
class Terminate:
    tip_hash: bytes = fixed("32s")
    host_signature: bytes = trailing_signature()
    signing_digest = _signing_digest


@request(12)
class Snapshot:
    pass


@request(13)
class InitStatus:
    pass


@request(14)
class InitRun:
    pass


Request = (
    AddUser | AddDeposit | UpdateBoundary | Payment | Settle | QueryLatestBlock
    | QueryUser | QueryLedger | InsertBlock | GetSettlement | Terminate | Snapshot
    | InitStatus | InitRun
)


def encode_request(req: Request) -> bytes:
    layout = getattr(req, "_layout", None)
    if layout is None:
        raise UnknownType(type(req).__name__)
    layout.check_sizes(req)
    return layout.encode(req)


def decode_request(data: bytes) -> Request:
    if not data:
        raise MalformedFrame("empty request")
    layout = _LAYOUTS.get(data[0])
    if layout is None:
        raise UnknownType(f"request kind {data[0]}")
    try:
        return layout.decode(data)
    except struct.error:
        raise MalformedFrame("truncated request") from None


# --- responses ---

STATUS_OK = 0
STATUS_ERR = 1


def encode_ok(fields: dict) -> bytes:
    """Responses travel as a flat tag-value body; values are ints, byte
    strings, or None."""
    w = Writer().u8(STATUS_OK).u16(len(fields))
    for key, value in fields.items():
        w.lp_bytes(key.encode())
        if value is None:
            w.u8(0)
        elif isinstance(value, int):  # bools included
            w.u8(1).u64(value)
        elif isinstance(value, bytes):
            w.u8(2).lp_bytes32(value)
        else:
            raise TypeError(f"unsupported response value {type(value).__name__}")
    return w.getvalue()


def encode_err(exc: RouteeError) -> bytes:
    return (
        Writer()
        .u8(STATUS_ERR)
        .lp_bytes(exc.code.encode())
        .lp_bytes(exc.detail.encode())
        .getvalue()
    )


class RemoteError(RouteeError):
    """Error raised client-side from a decoded error response."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(detail)


def _text(r: Reader) -> str:
    try:
        return r.lp_bytes().decode()
    except UnicodeDecodeError as exc:
        raise MalformedFrame(f"bad UTF-8 in response: {exc.reason}") from None


def decode_response(data: bytes) -> dict:
    r = Reader(data)
    status = r.u8()
    if status == STATUS_ERR:
        code = _text(r)
        detail = _text(r)
        r.expect_end()
        raise RemoteError(code, detail)
    if status != STATUS_OK:
        raise MalformedFrame(f"bad response status {status}")
    out: dict = {}
    for _ in range(r.u16()):
        key = _text(r)
        tag = r.u8()
        if tag == 0:
            out[key] = None
        elif tag == 1:
            out[key] = r.u64()
        elif tag == 2:
            out[key] = r.lp_bytes32()
        else:
            raise MalformedFrame(f"bad value tag {tag}")
    r.expect_end()
    return out
