"""Canonical encoding of every binary layout the hub speaks or stores.

Frame: 4-byte big-endian length, 1-byte frame type, payload (`netio` moves
frames over sockets with the same packing and length check). Every frame
is answered in its own frame type. Handshake and envelope frames carry the
encrypted session traffic. Hub info and the block source's frames carry
public data unencrypted, each answered with the ok or error reply a hub
request gets.

Each layout is declared once, as a record: a class whose annotated fields
name their wire format. `record` builds the class itself, without
`dataclasses`: one generated `__init__` per class, and a field-wise `==` and
`repr` shared by every record; `plain` builds classes with no wire layout
the same way. A record travels as its kind byte if it has one (requests,
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

import functools
import struct
from operator import attrgetter

from .crypto import sha256
from .errors import CodedError, MalformedFrame, RouteeError, UnknownType

# frame types; a reply comes back in its request's frame type
FRAME_HANDSHAKE_INIT = 1
FRAME_ENVELOPE = 3
# hub info and the block source's requests, answered with an ok or error reply
FRAME_HEADERS_REQ = 4
FRAME_BLOCK_REQ = 6
FRAME_TX_SUBMIT = 8
FRAME_MINE_REQ = 10
FRAME_TIP_REQ = 12
FRAME_PAY_REQ = 14
FRAME_HUB_INFO_REQ = 16

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


_NOTHING = object()  # a field declared without a default


class _Field:
    """A declared field: its wire codec (a `struct` format code, a codec
    object, or None in a class that never travels) and its default, a value
    or a factory called once per instance."""

    def __init__(self, codec=None, default=_NOTHING, factory=None):
        self.codec = codec
        self.default = default
        self.factory = factory


def fixed(code: str):
    """A fixed-width field, given as one `struct` format code."""
    return _Field(code)


def repeated(item_cls: type):
    """A list of records of one declared class."""
    return _Field(_Repeated(item_cls), factory=list)


def trailing():
    """A byte string of any length, after the fixed fields."""
    return _Field(_BYTES)


def text():
    """A string of any length, after the fixed fields."""
    return _Field(_TEXT)


def tagged():
    """None, an int or a byte string, after the fixed fields."""
    return _Field(_VALUE)


def trailing_signature():
    """The last byte string of a request, which its signing digest leaves out."""
    return _Field(_SIGNATURE, default=b"")


def fresh(factory):
    """A `plain` field whose default is a new `factory()` per instance."""
    return _Field(factory=factory)


def _declared(cls) -> list[tuple[str, _Field]]:
    """The fields a class body declares, in order: each annotated name, with
    the `_Field` or plain default it is assigned, if any."""
    fields = []
    for name in cls.__dict__.get("__annotations__", ()):
        value = cls.__dict__.get(name, _NOTHING)
        fields.append((name, value if isinstance(value, _Field) else _Field(default=value)))
    return fields


def _init_for(cls, fields: list[tuple[str, _Field]], frozen: bool):
    """The `__init__` of `fields`, compiled once for the class, as a
    dataclass's is: a factory default makes a fresh value per instance."""
    env = {"_NOTHING": _NOTHING, "_set": object.__setattr__}
    params, body = ["self"], []
    for name, spec in fields:
        value = name
        if spec.factory is not None:
            env[f"_factory_{name}"] = spec.factory
            params.append(f"{name}=_NOTHING")
            value = f"_factory_{name}() if {name} is _NOTHING else {name}"
        elif spec.default is not _NOTHING:
            env[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


# methods shared by every built class; `_values` is the class's getter of its fields

def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._values(self) == other._values(other)
    return NotImplemented


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
    return f"{type(self).__qualname__}({fields})"


def _hash(self) -> int:
    return hash(self._values(self))


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def _build(cls, frozen: bool) -> list[tuple[str, _Field]]:
    """Give `cls` what a dataclass would: `__init__`, a field-wise `==` and
    `repr`, and, `frozen`, no assignment after `__init__` and a hash of the
    fields, else no hash. A method the class body defines is kept. Returns
    the declared fields."""
    fields = _declared(cls)
    names = tuple(name for name, _ in fields)
    for name in names:
        if isinstance(cls.__dict__.get(name), _Field):
            delattr(cls, name)
    cls._field_names = names
    # attrgetter of one name returns the value itself, not a 1-tuple
    cls._values = staticmethod(attrgetter(*names) if names else lambda obj: ())
    methods = {"__init__": _init_for(cls, fields, frozen), "__eq__": _eq, "__repr__": _repr}
    if frozen:
        methods.update(__hash__=_hash, __setattr__=_frozen, __delattr__=_frozen)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return fields


def plain(cls=None, *, frozen: bool = False):
    """Class decorator, bare or with `frozen=True`: a class of plain fields,
    with plain defaults, built as a record is but with no wire layout."""
    if cls is None:
        return functools.partial(plain, frozen=frozen)
    _build(cls, frozen)
    return cls


class _Layout:
    """A record declaration compiled to `struct`s. The head struct holds the
    kind byte of a record that has one (requests, replies) and every fixed
    field; the variable fields follow it in declaration order."""

    def __init__(self, cls: type, fields: list[tuple[str, _Field]]):
        self.cls = cls
        self.kind = getattr(cls, "kind", None)
        names, codes, self.tail = [], [], []
        for name, spec in fields:
            if spec.codec is None:
                raise TypeError(f"{cls.__name__}.{name}: a record field needs a wire format")
            if isinstance(spec.codec, str):
                names.append(name)
                codes.append(spec.codec)
            else:
                self.tail.append((name, spec.codec))
        prefix = [] if self.kind is None else ["kind"]
        self.head = struct.Struct(">" + "B" * len(prefix) + "".join(codes))
        getters = prefix + names
        get = attrgetter(*getters) if getters else lambda obj: ()
        # attrgetter of one name returns the value itself, not a 1-tuple
        self.head_values = (lambda obj: (get(obj),)) if len(getters) == 1 else get
        self.sized = [(name, int(code[:-1])) for name, code in zip(names, codes) if code.endswith("s")]
        self.repeated = [(name, codec.layout) for name, codec in self.tail if isinstance(codec, _Repeated)]
        # the signature field's name, for a request whose last field is one
        self.signature = self.tail[-1][0] if self.tail and self.tail[-1][1] is _SIGNATURE else None
        self.unsigned_tail = self.tail[:-1] if self.signature else self.tail
        wire_order = names + [name for name, _ in self.tail]
        field_order = [name for name, _ in fields]
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

    def unsigned(self, obj) -> bytes:
        """The encoding without the signature, as it arrived for a request
        from `received_request`."""
        received = obj.__dict__.get("_received")
        return self.encode(obj, signed=False) if received is None else received[0][:received[1]]

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
    """Class decorator: build a record class and compile its layout."""
    cls._layout = _Layout(cls, _build(cls, frozen=False))
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
    return sha256(_SIGNING_CONTEXT + self._layout.unsigned(self))


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
        return sha256(_SIGNING_CONTEXT + self._layout.unsigned(self) + session_id)


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

    def signing_digest(self, header_hash: bytes) -> bytes:
        return self.signing_digest_for(header_hash)


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


def received_request(data: bytes):
    """`decode_request` for a request answered as it arrived and never changed.
    A signed one keeps those bytes; its digest hashes them up to the length of
    its signature, the last field. Decoding is exact: an encoding gives these."""
    req = decode_request(data)
    name = req._layout.signature
    if name is not None:
        req._received = data, len(data) - _SIGNATURE.length.size - len(getattr(req, name))
    return req


# --- replies ---

STATUS_OK = 0
STATUS_ERR = 1
_OK = bytes([STATUS_OK])


_key_text = functools.lru_cache(maxsize=128)(_TEXT.pack)  # a hub's replies use a few dozen keys


class _Fields:
    """An ok reply's fields behind a 2-byte count, each a text key and a value."""

    count = struct.Struct(">H")

    def pack(self, fields: dict) -> bytes:
        items = [_key_text(key) + _VALUE.pack(item) for key, item in fields.items()]
        return self.count.pack(len(fields)) + b"".join(items)

    def unpack(self, data: bytes, pos: int) -> tuple[dict, int]:
        (count,) = self.count.unpack_from(data, pos)
        pos += self.count.size
        out: dict = {}
        for _ in range(count):
            key, pos = _TEXT.unpack(data, pos)
            out[key], pos = _VALUE.unpack(data, pos)
        return out, pos


_FIELDS = _Fields()


@record
class OkReply:
    kind = STATUS_OK
    fields: dict = _Field(_FIELDS, factory=dict)


@record
class ErrorReply:
    kind = STATUS_ERR
    code: str = text()
    detail: str = text()


def encode_ok(fields: dict) -> bytes:
    """`encode(OkReply(fields))`, packed without building the record."""
    return _OK + _FIELDS.pack(fields)


def encode_err(exc: RouteeError) -> bytes:
    return encode(ErrorReply(exc.code, exc.detail))


class RemoteError(CodedError):
    """Error raised client-side from a decoded error response."""


def decode_response(data: bytes, kinds: dict | None = None) -> dict:
    """The fields of an ok reply; an error reply raises `RemoteError` with
    its code. Each field `kinds` names must hold the type it maps to, else
    `MalformedFrame`."""
    if data and data[0] == STATUS_ERR:
        reply = decode(ErrorReply, data)
        raise RemoteError(reply.code, reply.detail)
    fields = decode(OkReply, data).fields
    for name, kind in (kinds or {}).items():
        if not isinstance(fields.get(name, ...), kind):
            raise MalformedFrame(f"reply field {name!r}: {fields.get(name, 'missing')!r}")
    return fields


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


# `Envelope`'s head, then its ciphertext's length: `session` packs and slices with it
ENVELOPE_HEAD = struct.Struct(Envelope._layout.head.format + _BYTES.length.format.lstrip(">"))


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
class Height:
    height: int = fixed("Q")


@record
class RawTx:
    """A serialized transaction (`transactions.Transaction`)."""

    raw: bytes = trailing()


@record
class RawBlock:
    """A serialized block: its header, then its transactions."""

    header: bytes = fixed("80s")
    txs: list[RawTx] = repeated(RawTx)


@record
class MineRequest:
    count: int = fixed("H")


@record
class TipRequest:
    """A tip request's body, which has no fields."""


@record
class PayRequest:
    address: bytes = fixed("20s")
    amount: int = fixed("Q")
    fee: int = fixed("Q")
