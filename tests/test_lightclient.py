import pytest

from routee.errors import ChainTooShort, MalformedFrame, PeerError
from routee.headers import BlockHeader
from routee.lightclient import (
    NodeHeaderSource,
    StaticHeaderSource,
    choose_boundary,
    sync_headers,
)
from routee.simchain import forge_chain


def test_single_honest_peer_matches_node(node):
    node.mine_blocks(10)
    store = sync_headers([("peer0", NodeHeaderSource(node))], node.params, batch_size=4)
    selected = store.selected
    assert selected.peer_id == "peer0"
    assert selected.chain.tip_height == node.tip_height
    assert selected.chain.tip_hash == node.chain.tip_hash


def test_batched_download_uses_batch_size(node):
    node.mine_blocks(9)

    class CountingSource(NodeHeaderSource):
        calls: list[tuple[int, int]] = []

        def fetch_headers(self, from_height, count):
            self.calls.append((from_height, count))
            return super().fetch_headers(from_height, count)

    store = sync_headers([("p", CountingSource(node))], node.params, batch_size=4)
    assert store.selected.chain.tip_height == 9
    assert CountingSource.calls[0] == (0, 4)
    assert CountingSource.calls[1] == (4, 4)


def test_forged_lower_work_peer_loses(node):
    node.mine_blocks(6)
    forged = forge_chain(node, 4)
    node.mine_blocks(2)  # honest chain is now strictly longer
    forged_raw = [b.header.serialize() for b in node.blocks[:5]] + [
        b.header.serialize() for b in forged
    ]
    store = sync_headers(
        [("honest", NodeHeaderSource(node)), ("forged", StaticHeaderSource(forged_raw))],
        node.params,
    )
    assert store.selected.peer_id == "honest"
    # both candidates validated; honest wins on cumulative work
    assert "forged" in store.candidates
    assert (
        store.candidates["forged"].chain.cumulative_work
        < store.selected.chain.cumulative_work
    )


def test_equal_work_tie_breaks_first_seen(node):
    node.mine_blocks(5)
    raw = [b.header.serialize() for b in node.blocks]
    store = sync_headers(
        [("first", StaticHeaderSource(raw)), ("second", StaticHeaderSource(raw))],
        node.params,
    )
    assert store.selected.peer_id == "first"


def test_peer_with_broken_link_dropped(node):
    node.mine_blocks(6)
    raw = [b.header.serialize() for b in node.blocks]
    broken = raw[:3] + raw[4:]
    store = sync_headers(
        [("bad", StaticHeaderSource(broken)), ("good", NodeHeaderSource(node))],
        node.params,
    )
    assert "bad" in store.rejected
    assert store.selected.peer_id == "good"


def test_peer_with_invalid_pow_dropped(node):
    node.mine_blocks(4)
    raw = [b.header.serialize() for b in node.blocks]
    h = BlockHeader.deserialize(raw[2])
    forged = BlockHeader(h.version, h.prev_hash, h.merkle_root, h.timestamp, 0x1D00FFFF, h.nonce)
    bad = raw[:2] + [forged.serialize()] + raw[3:]
    store = sync_headers(
        [("bad", StaticHeaderSource(bad)), ("good", NodeHeaderSource(node))], node.params
    )
    assert store.rejected["bad"] == "bad-bits"


def test_forged_base_without_proof_of_work_is_dropped(node):
    # one header at a near-zero target would outweigh any honest chain if
    # its target counted as work; it carries no proof of work for it
    node.mine_blocks(50)
    forged = BlockHeader(1, bytes(32), bytes(32), 0, 0x03000001, 0)
    store = sync_headers(
        [("forged", StaticHeaderSource([forged.serialize()])), ("honest", NodeHeaderSource(node))],
        node.params,
    )
    assert store.selected.peer_id == "honest"
    assert "forged" in store.rejected and "forged" not in store.candidates
    assert choose_boundary(store, 6) == (44, node.chain.hash_at(44))


def test_base_with_a_malformed_target_drops_only_its_peer(node):
    node.mine_blocks(5)
    h = node.blocks[0].header
    negative = BlockHeader(h.version, h.prev_hash, h.merkle_root, h.timestamp, 0x04923456, h.nonce)
    store = sync_headers(
        [("negative", StaticHeaderSource([negative.serialize()])), ("honest", NodeHeaderSource(node))],
        node.params,
    )
    assert store.selected.peer_id == "honest"
    assert "negative" in store.rejected


def test_peer_with_a_malformed_reply_is_dropped(node):
    node.mine_blocks(5)

    class GarbledSource(NodeHeaderSource):
        def fetch_headers(self, from_height, count):
            if from_height:
                raise MalformedFrame("not a batch of headers")
            return super().fetch_headers(from_height, 2)

    store = sync_headers(
        [("garbled", GarbledSource(node)), ("honest", NodeHeaderSource(node))], node.params, batch_size=2
    )
    assert store.rejected["garbled"] == "malformed-frame"
    assert list(store.candidates) == ["honest"]


def test_sole_invalid_peer_raises(node):
    # a peer that answers with a broken chain leaves no candidate to select
    node.mine_blocks(6)
    raw = [b.header.serialize() for b in node.blocks]
    with pytest.raises(PeerError):
        sync_headers([("bad", StaticHeaderSource(raw[:3] + raw[4:]))], node.params)


def test_all_peers_unreachable_raises(node):
    class DeadSource(NodeHeaderSource):
        def fetch_headers(self, from_height, count):
            raise ConnectionError("nope")

    with pytest.raises(PeerError):
        sync_headers([("dead", DeadSource(node))], node.params)


def test_storage_is_exactly_80_bytes_per_header(node):
    node.mine_blocks(24)
    store = sync_headers([("p", NodeHeaderSource(node))], node.params, batch_size=7)
    assert store.storage_bytes() == 80 * (node.tip_height + 1)


def test_choose_boundary_arithmetic(node):
    node.mine_blocks(100)
    store = sync_headers([("p", NodeHeaderSource(node))], node.params)
    height, block_hash = choose_boundary(store, 6)
    assert height == 94
    assert block_hash == node.chain.hash_at(94)
    with pytest.raises(ChainTooShort):
        choose_boundary(store, 101)


def test_boundary_advances_with_new_blocks(node):
    node.mine_blocks(10)
    store = sync_headers([("p", NodeHeaderSource(node))], node.params)
    h1, _ = choose_boundary(store, 3)
    node.mine_blocks(2)
    # resume the same store rather than redownloading
    store = sync_headers([("p", NodeHeaderSource(node))], node.params, store=store)
    h2, _ = choose_boundary(store, 3)
    assert h2 == h1 + 2


def test_client_config_requires_positive_k(node):
    node.mine_blocks(10)
    store = sync_headers([("p", NodeHeaderSource(node))], node.params)
    with pytest.raises(ValueError):
        choose_boundary(store, 0)
