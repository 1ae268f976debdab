import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from routee.errors import BlockRejected, InsufficientHistory, MalformedTarget
from routee.headers import (
    BlockHeader,
    ChainParams,
    CompactTarget,
    HeaderChain,
    bits_to_target,
    check_pow,
    expected_target,
    merkle_root,
    target_to_bits,
    work_from_target,
)
from routee.simchain import SimNode

ZERO_HEADER_DIGEST = "4be7570e8f70eb093640c8468274ba759745a7aa2b7d25ab1e0421b259845014"


def zero_header(**overrides):
    fields = dict(version=0, prev_hash=b"\x00" * 32, merkle_root=b"\x00" * 32,
                  timestamp=0, bits=0, nonce=0)
    fields.update(overrides)
    return BlockHeader(**fields)


def test_header_serialization_is_80_bytes():
    header = zero_header(version=2, timestamp=123, bits=0x207FFFFF, nonce=99)
    raw = header.serialize()
    assert len(raw) == 80
    assert BlockHeader.deserialize(raw) == header


def test_header_hash_golden_vector():
    assert zero_header().hash().hex() == ZERO_HEADER_DIGEST


def test_header_hash_equals_hash_of_raw_bytes():
    header = zero_header(nonce=7)
    raw = header.serialize()
    expected = hashlib.sha256(hashlib.sha256(raw).digest()).digest()
    assert header.hash() == expected


def test_nonce_change_changes_hash():
    assert zero_header(nonce=1).hash() != zero_header(nonce=2).hash()


# --- compact target ---

def test_difficulty_one_bits_expand():
    assert bits_to_target(0x1D00FFFF) == 0xFFFF << (8 * (0x1D - 3))


@pytest.mark.parametrize("bits", [0x1D00FFFF, 0x207FFFFF, 0x1B0404CB, 0x02123400])
def test_compact_roundtrip_exact_on_canonical(bits):
    assert target_to_bits(bits_to_target(bits)) == bits


def _truncate_like_compact(target: int) -> int:
    # independent restatement: keep only the top three bytes of magnitude,
    # shifting one byte down when the top mantissa bit would read as a sign
    if target == 0:
        return 0
    size = (target.bit_length() + 7) // 8
    shift = 8 * max(0, size - 3)
    mantissa = target >> shift
    if mantissa & 0x800000:
        mantissa >>= 8
        shift += 8
    return mantissa << shift


@given(st.integers(min_value=1, max_value=(1 << 255) - 1))
def test_compact_loses_only_submantissa_precision(target):
    decoded = bits_to_target(target_to_bits(target))
    assert decoded == _truncate_like_compact(target)
    assert decoded <= target
    assert target_to_bits(decoded) == target_to_bits(target)


def test_negative_compact_rejected():
    with pytest.raises(MalformedTarget):
        bits_to_target(0x01800000 | 0x123400)  # sign bit set with nonzero mantissa
    with pytest.raises(MalformedTarget):
        bits_to_target(0x23FFFFFF)  # overflow past 256 bits


def test_check_pow_rejects_zero_target():
    with pytest.raises(MalformedTarget):
        check_pow(zero_header(bits=0))


class _FixedHashHeader:
    """Duck-typed header whose hash is dictated, to pin the <= boundary."""

    def __init__(self, digest: bytes, bits: int):
        self.bits = bits
        self._digest = digest

    def hash(self):
        return self._digest


def test_check_pow_boundary_exact():
    bits = 0x1D00FFFF
    target = bits_to_target(bits)
    at_target = _FixedHashHeader(target.to_bytes(32, "little"), bits)
    above_target = _FixedHashHeader((target + 1).to_bytes(32, "little"), bits)
    assert check_pow(at_target) is True
    assert check_pow(above_target) is False


def test_check_pow_on_mined_block():
    node = SimNode(seed=5)
    block = node.mine_block([])
    assert check_pow(block.header) is True


# --- merkle ---

def sha256d(b):
    return hashlib.sha256(hashlib.sha256(b).digest()).digest()


def test_merkle_single_leaf_is_identity():
    t = sha256d(b"t")
    assert merkle_root([t]) == t


def test_merkle_two_leaves_definition():
    t1, t2 = sha256d(b"1"), sha256d(b"2")
    assert merkle_root([t1, t2]) == sha256d(t1 + t2)


def _merkle_oracle(txids):
    # naive recursion with explicit odd-level duplication
    if len(txids) == 1:
        return txids[0]
    padded = txids + [txids[-1]] if len(txids) % 2 else txids
    parents = [sha256d(padded[i] + padded[i + 1]) for i in range(0, len(padded), 2)]
    return _merkle_oracle(parents)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13])
def test_merkle_matches_recursive_oracle(n):
    txids = [sha256d(bytes([i])) for i in range(n)]
    assert merkle_root(txids) == _merkle_oracle(txids)


def test_merkle_empty_rejected():
    with pytest.raises(ValueError):
        merkle_root([])


# --- retarget ---

def _build_chain(params, timestamps, bits=None):
    """Unvalidated chain with dictated timestamps, for retarget arithmetic."""
    chain = HeaderChain.__new__(HeaderChain)
    chain.params = params
    chain.start_height = 0
    chain.headers = []
    chain._hashes = []
    chain.cumulative_work = 0
    prev = b"\x00" * 32
    for ts in timestamps:
        header = BlockHeader(1, prev, b"\x00" * 32, ts, bits or params.pow_limit_bits, 0)
        chain.headers.append(header)
        chain._hashes.append(header.hash())
        prev = chain._hashes[-1]
    return chain


def test_retarget_unchanged_at_exact_timespan():
    # window endpoints exactly interval * spacing apart -> ratio 1
    params = ChainParams(retarget_interval=4, target_spacing=600, pow_limit_bits=0x1D00FFFF)
    start_bits = 0x1C0FFFFF
    timestamps = [i * 800 for i in range(4)]  # last - first = 2400 = 4 * 600
    chain = _build_chain(params, timestamps, bits=start_bits)
    result = expected_target(chain, 4)
    assert result.bits == start_bits


def test_retarget_doubles_when_twice_as_slow():
    params = ChainParams(retarget_interval=4, target_spacing=600, pow_limit_bits=0x1D00FFFF)
    start_bits = 0x1C0FFFFF
    timestamps = [i * 1600 for i in range(4)]  # last - first = 2 * timespan
    chain = _build_chain(params, timestamps, bits=start_bits)
    result = expected_target(chain, 4)
    want = min(bits_to_target(start_bits) * 2, params.pow_limit)
    assert result.expanded == bits_to_target(target_to_bits(want))


def test_retarget_clamps_to_quarter_and_quadruple():
    params = ChainParams(retarget_interval=4, target_spacing=600, pow_limit_bits=0x1D00FFFF)
    start_bits = 0x1C0FFFFF
    base = bits_to_target(start_bits)

    crawl = _build_chain(params, [i * 600 * 100 for i in range(4)], bits=start_bits)
    slowest = expected_target(crawl, 4)
    assert slowest.expanded == bits_to_target(target_to_bits(base * 4))

    blaze = _build_chain(params, [0, 1, 2, 3], bits=start_bits)
    fastest = expected_target(blaze, 4)
    assert fastest.expanded == bits_to_target(target_to_bits(base // 4))


def _retarget_oracle(params, first_ts, last_ts, prev_bits):
    # independent arbitrary-precision recomputation of the retarget rule
    span = params.retarget_interval * params.target_spacing
    actual = last_ts - first_ts
    actual = max(span // 4, min(actual, span * 4))
    new_target = (bits_to_target(prev_bits) * actual) // span
    new_target = min(new_target, bits_to_target(params.pow_limit_bits))
    return target_to_bits(new_target)


def test_retarget_matches_oracle_on_random_windows():
    rng = random.Random(1234)
    params = ChainParams(retarget_interval=8, target_spacing=600, pow_limit_bits=0x1D00FFFF)
    for _ in range(50):
        base_ts = rng.randrange(1, 2**31)
        bits = target_to_bits(rng.randrange(1 << 30, params.pow_limit))
        offsets = sorted(rng.randrange(0, 8 * 600 * 8) for _ in range(8))
        timestamps = [base_ts + o for o in offsets]
        chain = _build_chain(params, timestamps, bits=bits)
        got = expected_target(chain, 8)
        assert got.bits == _retarget_oracle(params, timestamps[0], timestamps[-1], bits)


def test_retarget_non_boundary_returns_previous():
    params = ChainParams(retarget_interval=8, target_spacing=600)
    chain = _build_chain(params, [0, 600, 1200], bits=params.pow_limit_bits)
    assert expected_target(chain, 3).bits == params.pow_limit_bits


def test_retarget_requires_window():
    params = ChainParams(retarget_interval=4, target_spacing=600)
    chain = _build_chain(params, [0, 600], bits=params.pow_limit_bits)
    chain.start_height = 4  # simulates a truncated chain missing the window
    with pytest.raises(InsufficientHistory):
        expected_target(chain, 8)


# --- header chain ---

def test_chain_appends_mined_headers_and_accumulates_work():
    node = SimNode(seed=3)
    blocks = node.mine_blocks(20)
    chain = HeaderChain(node.params, node.get_block(0).header, 0)
    works = [chain.cumulative_work]
    for block in blocks:
        chain.append(block.header)
        works.append(chain.cumulative_work)
    assert all(b > a for a, b in zip(works, works[1:]))
    assert chain.tip_hash == node.chain.tip_hash
    per_header = work_from_target(bits_to_target(node.params.pow_limit_bits))
    assert chain.cumulative_work == per_header * 21


def test_chain_rejects_broken_link():
    node = SimNode(seed=3)
    node.mine_blocks(3)
    chain = HeaderChain(node.params, node.get_block(0).header, 0)
    chain.append(node.get_block(1).header)
    with pytest.raises(BlockRejected) as exc:
        chain.append(node.get_block(3).header)
    assert exc.value.code == "prev-mismatch"


def test_chain_rejects_wrong_bits():
    node = SimNode(seed=3)
    node.mine_blocks(1)
    chain = HeaderChain(node.params, node.get_block(0).header, 0)
    good = node.get_block(1).header
    bad = BlockHeader(good.version, good.prev_hash, good.merkle_root,
                      good.timestamp, 0x1D00FFFF, good.nonce)
    with pytest.raises(BlockRejected) as exc:
        chain.append(bad)
    assert exc.value.code == "bad-bits"


def test_chain_start_must_align_to_retarget_interval():
    node = SimNode(ChainParams.regtest(retarget_interval=8), seed=3)
    node.mine_blocks(9)
    with pytest.raises(ValueError):
        HeaderChain(node.params, node.get_block(3).header, 3)
    aligned = HeaderChain(node.params, node.get_block(8).header, 8)
    aligned.append(node.get_block(9).header)
    assert aligned.tip_height == 9


def test_compact_target_dataclass():
    ct = CompactTarget.from_bits(0x1D00FFFF)
    assert ct.expanded == bits_to_target(0x1D00FFFF)
    assert CompactTarget.from_target(ct.expanded).bits == 0x1D00FFFF
