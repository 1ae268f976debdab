"""Block headers, proof of work, difficulty retargeting, and Merkle roots.

Headers use the exact 80-byte on-chain layout: little-endian integers, hashes
in internal byte order. A header hash is interpreted as a 256-bit
little-endian integer when compared against the expanded compact target.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .crypto import sha256d
from .errors import BlockRejected, InsufficientHistory, MalformedTarget

HEADER_SIZE = 80
_HEADER_FMT = "<i32s32sIII"

MAX_TARGET_BITS = 0x1D00FFFF  # difficulty-1 style ceiling used as default pow limit


@dataclass(frozen=True)
class BlockHeader:
    version: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    bits: int
    nonce: int

    def serialize(self) -> bytes:
        return struct.pack(
            _HEADER_FMT,
            self.version,
            self.prev_hash,
            self.merkle_root,
            self.timestamp,
            self.bits,
            self.nonce,
        )

    @classmethod
    def deserialize(cls, raw: bytes) -> "BlockHeader":
        if len(raw) != HEADER_SIZE:
            raise ValueError(f"header must be {HEADER_SIZE} bytes, got {len(raw)}")
        version, prev_hash, merkle_root, timestamp, bits, nonce = struct.unpack(_HEADER_FMT, raw)
        return cls(version, prev_hash, merkle_root, timestamp, bits, nonce)

    def hash(self) -> bytes:
        return sha256d(self.serialize())


def bits_to_target(bits: int) -> int:
    """Expand a compact target. Raises on negative or overflowing encodings,
    mirroring the consensus arith_uint256 rules."""
    exponent = bits >> 24
    mantissa = bits & 0x007FFFFF
    if bits & 0x00800000 and mantissa:
        raise MalformedTarget(f"negative compact target 0x{bits:08x}")
    if mantissa and (
        exponent > 34
        or (mantissa > 0xFF and exponent > 33)
        or (mantissa > 0xFFFF and exponent > 32)
    ):
        raise MalformedTarget(f"compact target overflow 0x{bits:08x}")
    if exponent <= 3:
        return mantissa >> (8 * (3 - exponent))
    return mantissa << (8 * (exponent - 3))


def target_to_bits(target: int) -> int:
    """Compact-encode a target, truncating below the 3-byte mantissa."""
    if target < 0:
        raise MalformedTarget("negative target")
    size = (target.bit_length() + 7) // 8
    if size <= 3:
        compact = target << (8 * (3 - size))
    else:
        compact = target >> (8 * (size - 3))
    if compact & 0x00800000:
        # high mantissa bit doubles as the sign flag; shift into the exponent
        compact >>= 8
        size += 1
    return compact | (size << 24)


@dataclass(frozen=True)
class CompactTarget:
    bits: int
    expanded: int

    @classmethod
    def from_bits(cls, bits: int) -> "CompactTarget":
        return cls(bits, bits_to_target(bits))

    @classmethod
    def from_target(cls, target: int) -> "CompactTarget":
        bits = target_to_bits(target)
        return cls(bits, bits_to_target(bits))


def work_from_target(target: int) -> int:
    return (1 << 256) // (target + 1)


def check_pow(header: BlockHeader) -> bool:
    """True iff the header hash, as a little-endian integer, is at or below
    the expanded target. Raises MalformedTarget for bad `bits`."""
    target = bits_to_target(header.bits)
    if target <= 0:
        raise MalformedTarget(f"non-positive target from bits 0x{header.bits:08x}")
    return int.from_bytes(header.hash(), "little") <= target


def merkle_root(txids: list[bytes]) -> bytes:
    """Consensus Merkle rule: pair-wise double hash, odd levels duplicate the
    last element, a single leaf is its own root."""
    if not txids:
        raise ValueError("merkle root of empty list")
    level = list(txids)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha256d(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


@dataclass(frozen=True)
class ChainParams:
    retarget_interval: int = 2016
    target_spacing: int = 600
    pow_limit_bits: int = MAX_TARGET_BITS
    block_subsidy: int = 50 * 100_000_000

    @property
    def target_timespan(self) -> int:
        return self.retarget_interval * self.target_spacing

    @property
    def pow_limit(self) -> int:
        return bits_to_target(self.pow_limit_bits)

    @classmethod
    def regtest(cls, retarget_interval: int = 100_000, target_spacing: int = 600) -> "ChainParams":
        """Desk-scale preset: trivial proof of work (0x207fffff expands to
        ~2^255) and, like the reference regtest mode, no retarget boundary
        within reach. Retarget-focused tests pass a small interval and drive
        the clock explicitly."""
        return cls(retarget_interval, target_spacing, 0x207FFFFF)


def expected_target(chain: "HeaderChain", new_height: int) -> CompactTarget:
    """Target the header at `new_height` must carry.

    Off retarget boundaries this is the previous header's target. On a
    boundary it is previous_target * actual_timespan / target_timespan with
    the timespan clamped to [1/4, 4x] of nominal, capped at the pow limit,
    and round-tripped through the compact encoding.
    """
    params = chain.params
    interval = params.retarget_interval
    prev = chain.header_at(new_height - 1)
    if new_height % interval != 0:
        return CompactTarget.from_bits(prev.bits)
    window_start = new_height - interval
    if window_start < chain.start_height:
        raise InsufficientHistory(
            f"retarget at height {new_height} needs headers from {window_start}"
        )
    first_ts = chain.header_at(window_start).timestamp
    last_ts = prev.timestamp
    span = params.target_timespan
    actual = max(span // 4, min(last_ts - first_ts, span * 4))
    new_target = bits_to_target(prev.bits) * actual // span
    new_target = min(new_target, params.pow_limit)
    return CompactTarget.from_target(new_target)


class HeaderChain:
    """Append-only run of validated headers from a start height.

    Appending enforces linkage, proof of work, and the retarget rule. The
    start header is taken on trust (checkpoint semantics); to keep every
    retarget boundary verifiable the start height must sit on a boundary.
    """

    def __init__(self, params: ChainParams, start_header: BlockHeader, start_height: int):
        if start_height % params.retarget_interval != 0:
            raise ValueError(
                f"start height {start_height} must align to the retarget "
                f"interval {params.retarget_interval}"
            )
        self.params = params
        self.start_height = start_height
        self.headers: list[BlockHeader] = [start_header]
        self._hashes: list[bytes] = [start_header.hash()]
        self.cumulative_work = work_from_target(bits_to_target(start_header.bits))

    def __len__(self) -> int:
        return len(self.headers)

    @property
    def tip_height(self) -> int:
        return self.start_height + len(self.headers) - 1

    @property
    def tip(self) -> BlockHeader:
        return self.headers[-1]

    @property
    def tip_hash(self) -> bytes:
        return self._hashes[-1]

    def header_at(self, height: int) -> BlockHeader:
        idx = height - self.start_height
        if idx < 0 or idx >= len(self.headers):
            raise InsufficientHistory(f"height {height} outside [{self.start_height}, {self.tip_height}]")
        return self.headers[idx]

    def hash_at(self, height: int) -> bytes:
        idx = height - self.start_height
        if idx < 0 or idx >= len(self.headers):
            raise InsufficientHistory(f"height {height} outside [{self.start_height}, {self.tip_height}]")
        return self._hashes[idx]

    def has_header(self, height: int, block_hash: bytes) -> bool:
        idx = height - self.start_height
        return 0 <= idx < len(self.headers) and self._hashes[idx] == block_hash

    def append(self, header: BlockHeader) -> None:
        new_height = self.tip_height + 1
        if header.prev_hash != self.tip_hash:
            raise BlockRejected("prev-mismatch", f"height {new_height}")
        expected = expected_target(self, new_height)
        if header.bits != expected.bits:
            raise BlockRejected(
                "bad-bits",
                f"height {new_height}: got 0x{header.bits:08x}, want 0x{expected.bits:08x}",
            )
        if not check_pow(header):
            raise BlockRejected("bad-pow", f"height {new_height}")
        self.headers.append(header)
        self._hashes.append(header.hash())
        self.cumulative_work += work_from_target(expected.expanded)
