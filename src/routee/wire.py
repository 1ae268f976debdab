"""Canonical encoding of every binary layout the hub speaks or stores.

Frame: 4-byte big-endian length, 1-byte frame type, payload (`netio` moves
frames over sockets with the same packing and length check). Handshake and
envelope frames carry the encrypted session traffic; the other frame types
serve public chain data unencrypted.

Each layout is declared once, as a record: a dataclass whose fields name
their wire format. A record travels as its kind byte if it has one (requests,
replies), its fixed-width fields, then its variable fields in declaration
order: repeated records behind a 4-byte count, byte strings behind a 4-byte
length, UTF-8 text behind a 2-byte length. Integers are big-endian. The
declarations compile to `struct.Struct`s at import; the encoder, the decoder
and the signing digests all derive from them, and a decoder turns any input
it cannot parse into `MalformedFrame`. Golden vectors pin the bytes of a
header and of a transaction, so `headers` and `transactions` pack those.

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


# --- records ---

_SIGNING_CONTEXT = b"routee/v1/"
_COUNT = struct.Struct(">I")


class _Bytes:
    """A byte string behind a 4-byte length."""

    length = struct.Struct(">I")

    def pack(self, value: bytes) -> bytes:
        return self.length.pack(len(value)) + value

    def unpack(self, data: bytes, pos: int) -> tuple[bytes, int]:
        (size,) = self.length.unpack_from(data, pos)
        pos += self.length.size
        value = data[pos:pos + size]
        if len(value) != size:
            raise MalformedFrame(f"truncated: need {size} bytes at offset {pos}")
        return value, pos + size


class _Text(_Bytes):
    """UTF-8 text behind a 2-byte length."""

    length = struct.Struct(">H")

    def pack(self, value: str) -> bytes:
        value = value.encode()
        return self.length.pack(len(value)) + value

    def unpack(self, data: bytes, pos: int) -> tuple[str, int]:
        value, pos = _Bytes.unpack(self, data, pos)
        return value.decode(), pos


class _Repeated:
    """Records behind a 4-byte count."""

    def __init__(self, item_cls: type):
        self.layout = item_cls._layout

    def pack(self, items: list) -> bytes:
        layout = self.layout
        if layout.tail:
            return _COUNT.pack(len(items)) + b"".join([layout.encode(item) for item in items])
        pack, values = layout.head.pack, layout.head_values
        return _COUNT.pack(len(items)) + b"".join([pack(*values(item)) for item in items])

    def unpack(self, data: bytes, pos: int) -> tuple[list, int]:
        (count,) = _COUNT.unpack_from(data, pos)
        pos += _COUNT.size
        layout = self.layout
        if layout.tail:
            items = []
            for _ in range(count):
                item, pos = layout.decode_from(data, pos)
                items.append(item)
            return items, pos
        end = pos + count * layout.head.size
        if end > len(data):
            raise MalformedFrame(f"truncated: {count} items")
        return [layout.cls(*values) for values in layout.head.iter_unpack(data[pos:end])], end


class _Value:
    """None, an int (bools too) or a byte string, after a tag byte: 0, 1 and
    a u64, or 2 and a 4-byte length."""

    tag = struct.Struct(">B")
    integer = struct.Struct(">BQ")

    def pack(self, value) -> bytes:
        if value is None:
            return self.tag.pack(0)
        if isinstance(value, int):
            return self.integer.pack(1, value)
        if isinstance(value, bytes):
            return self.tag.pack(2) + _BYTES.pack(value)
        raise TypeError(f"unsupported value {type(value).__name__}")

    def unpack(self, data: bytes, pos: int) -> tuple[int | bytes | None, int]:
        (tag,) = self.tag.unpack_from(data, pos)
        if tag == 0:
            return None, pos + self.tag.size
        if tag == 1:
            return self.integer.unpack_from(data, pos)[1], pos + self.integer.size
        if tag == 2:
            return _BYTES.unpack(data, pos + self.tag.size)
        raise MalformedFrame(f"bad value tag {tag}")


_BYTES = _Bytes()
_SIGNATURE = _Bytes()
_TEXT = _Text()
_VALUE = _Value()


def fixed(code: str):
    """A fixed-width field, given as one `struct` format code."""
    return field(metadata={"wire": code})


def repeated(item_cls: type):
    """A list of records of one declared class."""
    return field(default_factory=list, metadata={"wire": _Repeated(item_cls)})


def trailing():
    """A byte string of any length, after the fixed fields."""
    return field(metadata={"wire": _BYTES})


def text():
    """A string of any length, after the fixed fields."""
    return field(metadata={"wire": _TEXT})


def tagged():
    """None, an int or a byte string, after the fixed fields."""
    return field(metadata={"wire": _VALUE})


def trailing_signature():
    """The last byte string of a request, which its signing digest leaves out."""
    return field(default=b"", metadata={"wire": _SIGNATURE})


class _Layout:
    """A record declaration compiled to `struct`s. The head struct holds the
    kind byte of a record that has one (requests, replies) and every fixed
    field; the variable fields follow it in declaration order."""

    def __init__(self, cls: type):
        self.cls = cls
        self.kind = getattr(cls, "kind", None)
        names, codes, self.tail = [], [], []
        for f in dataclasses.fields(cls):
            spec = f.metadata["wire"]
            if isinstance(spec, str):
                names.append(f.name)
                codes.append(spec)
            else:
                self.tail.append((f.name, spec))
        prefix = [] if self.kind is None else ["kind"]
        self.head = struct.Struct(">" + "B" * len(prefix) + "".join(codes))
        getters = prefix + names
        get = attrgetter(*getters) if getters else lambda obj: ()
        # attrgetter of one name returns the value itself, not a 1-tuple
        self.head_values = (lambda obj: (get(obj),)) if len(getters) == 1 else get
        self.sized = [(name, int(code[:-1])) for name, code in zip(names, codes) if code.endswith("s")]
        self.repeated = [(name, codec.layout) for name, codec in self.tail if isinstance(codec, _Repeated)]
        signed = bool(self.tail) and self.tail[-1][1] is _SIGNATURE
        self.unsigned_tail = self.tail[:-1] if signed else self.tail
        wire_order = names + [name for name, _ in self.tail]
        field_order = [f.name for f in dataclasses.fields(cls)]
        # decode builds values in wire order; the constructor takes field order
        self.order = None if wire_order == field_order else [wire_order.index(n) for n in field_order]

    def check_sizes(self, obj) -> None:
        """`struct` pads or cuts a wrong-sized byte string; refuse it instead."""
        for name, size in self.sized:
            if len(getattr(obj, name)) != size:
                raise ValueError(f"{name}: expected {size} bytes, got {len(getattr(obj, name))}")
        for name, layout in self.repeated:
            for item in getattr(obj, name):
                layout.check_sizes(item)

    def encode(self, obj, signed: bool = True) -> bytes:
        out = self.head.pack(*self.head_values(obj))
        for name, codec in self.tail if signed else self.unsigned_tail:
            out += codec.pack(getattr(obj, name))
        return out

    def decode_from(self, data: bytes, pos: int):
        values = self.head.unpack_from(data, pos)
        if self.kind is not None:
            if values[0] != self.kind:
                raise MalformedFrame(f"{self.cls.__name__}: kind {values[0]}, not {self.kind}")
            values = values[1:]
        pos += self.head.size
        for _, codec in self.tail:
            value, pos = codec.unpack(data, pos)
            values += (value,)
        if self.order is not None:
            values = [values[i] for i in self.order]
        return self.cls(*values), pos

    def decode(self, data: bytes):
        try:
            obj, pos = self.decode_from(data, 0)
        except (struct.error, UnicodeDecodeError) as exc:
            raise MalformedFrame(f"{self.cls.__name__}: {exc}") from None
        if pos != len(data):
            raise MalformedFrame(f"{len(data) - pos} trailing bytes")
        return obj


def record(cls):
    """Class decorator: declare a record dataclass and compile its layout."""
    cls = dataclass(cls)
    cls._layout = _Layout(cls)
    return cls


_LAYOUTS: dict[int, _Layout] = {}


def request(kind: int):
    """Class decorator: declare a request record with its kind byte."""

    def declare(cls):
        cls.kind = kind
        cls = record(cls)
        _LAYOUTS[kind] = cls._layout
        return cls

    return declare


def encode(obj) -> bytes:
    """The encoding of a declared record; `ValueError` on a wrong-sized field."""
    obj._layout.check_sizes(obj)
    return obj._layout.encode(obj)


def decode(cls: type, data: bytes):
    """The `cls` record that `data` holds exactly, else `MalformedFrame`."""
    return cls._layout.decode(data)


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


@record
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


def encode_request(req) -> bytes:
    """The encoding of a request declared with `request`, else `UnknownType`."""
    layout = getattr(type(req), "_layout", None)
    if layout is None or _LAYOUTS.get(layout.kind) is not layout:
        raise UnknownType(type(req).__name__)
    return encode(req)


def decode_request(data: bytes):
    if not data:
        raise MalformedFrame("empty request")
    layout = _LAYOUTS.get(data[0])
    if layout is None:
        raise UnknownType(f"request kind {data[0]}")
    return layout.decode(data)


# --- replies ---

STATUS_OK = 0
STATUS_ERR = 1


class _Fields:
    """An ok reply's fields behind a 2-byte count, each a text key and a value."""

    count = struct.Struct(">H")

    def pack(self, fields: dict) -> bytes:
        items = [_TEXT.pack(key) + _VALUE.pack(item) for key, item in fields.items()]
        return self.count.pack(len(fields)) + b"".join(items)

    def unpack(self, data: bytes, pos: int) -> tuple[dict, int]:
        (count,) = self.count.unpack_from(data, pos)
        pos += self.count.size
        out: dict = {}
        for _ in range(count):
            key, pos = _TEXT.unpack(data, pos)
            out[key], pos = _VALUE.unpack(data, pos)
        return out, pos


@record
class OkReply:
    kind = STATUS_OK
    fields: dict = field(default_factory=dict, metadata={"wire": _Fields()})


@record
class ErrorReply:
    kind = STATUS_ERR
    code: str = text()
    detail: str = text()


def encode_ok(fields: dict) -> bytes:
    return encode(OkReply(fields))


def encode_err(exc: RouteeError) -> bytes:
    return encode(ErrorReply(exc.code, exc.detail))


class RemoteError(RouteeError):
    """Error raised client-side from a decoded error response."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(detail)


def decode_response(data: bytes) -> dict:
    if data and data[0] == STATUS_ERR:
        reply = decode(ErrorReply, data)
        raise RemoteError(reply.code, reply.detail)
    return decode(OkReply, data).fields


# --- session handshake and envelope ---


@record
class HandshakeInit:
    client_eph: bytes = fixed("32s")


@record
class HandshakeAck:
    session_id: bytes = fixed("8s")
    hub_eph: bytes = fixed("32s")
    measurement: bytes = fixed("32s")
    confirm: bytes = fixed("32s")


@record
class Envelope:
    """The first 16 bytes, session id and sequence number, are also the
    AES-GCM associated data."""

    session_id: bytes = fixed("8s")
    seq: int = fixed("Q")
    ciphertext: bytes = trailing()


# --- simchain frame bodies ---


@record
class HeadersRequest:
    from_height: int = fixed("Q")
    count: int = fixed("H")


@record
class RawHeader:
    """An 80-byte block header, as `headers.BlockHeader` serializes it."""

    raw: bytes = fixed("80s")


@record
class Headers:
    headers: list[RawHeader] = repeated(RawHeader)


@record
class Height:
    """A block request, or the tip height after mining."""

    height: int = fixed("Q")


@record
class RawTx:
    """A serialized transaction (`transactions.Transaction`)."""

    raw: bytes = trailing()


@record
class RawBlock:
    """A serialized block: its header, then its transactions. A block reply
    is one, or empty past the tip."""

    header: bytes = fixed("80s")
    txs: list[RawTx] = repeated(RawTx)


@record
class MineRequest:
    count: int = fixed("H")


@record
class Tip:
    height: int = fixed("Q")
    tip_hash: bytes = fixed("32s")


@record
class PayRequest:
    address: bytes = fixed("20s")
    amount: int = fixed("Q")
    fee: int = fixed("Q")


@record
class ChainResult:
    """The answer to a broadcast or a faucet payment; `code` is empty when
    the node accepted it."""

    txid: bytes = fixed("32s")
    code: str = text()
    detail: str = text()
