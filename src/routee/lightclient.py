"""User-side header synchronization and boundary-block selection.

The client downloads header chains from several peers in fixed-size batches,
validates each candidate fully (linkage, proof of work, retarget), and keeps
the one with the most cumulative work; ties go to the earliest peer. A user
then picks its boundary block a self-chosen confirmation depth below the tip.

A header source is anything with `fetch_headers(from_height, count)`
returning raw headers: a simchain node, a fixed list, or a network peer.
Storage is counted as 80 bytes per header held.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BlockRejected, ChainTooShort, PeerError
from .headers import HEADER_SIZE, BlockHeader, ChainParams, HeaderChain

HEADER_BATCH = 2016


@dataclass
class PeerCandidate:
    peer_id: str
    chain: HeaderChain


class HeaderStore:
    """Per-peer validated candidate chains plus the current selection."""

    def __init__(self, params: ChainParams):
        self.params = params
        self.candidates: dict[str, PeerCandidate] = {}
        self.rejected: dict[str, str] = {}

    @property
    def selected(self) -> PeerCandidate | None:
        best = None
        for cand in self.candidates.values():
            if best is None or cand.chain.cumulative_work > best.chain.cumulative_work:
                best = cand
        return best

    def ingest(self, peer_id: str, raw_headers: list[bytes], from_height: int) -> None:
        """Validate and adopt one peer's batch; a bad batch drops the peer."""
        if peer_id in self.rejected:
            return
        cand = self.candidates.get(peer_id)
        try:
            idx = 0
            if cand is None:
                if from_height != 0:
                    raise PeerError("first batch must start at the chain base")
                if not raw_headers:
                    raise PeerError("empty first batch")
                chain = HeaderChain(self.params, BlockHeader.deserialize(raw_headers[0]), 0)
                cand = PeerCandidate(peer_id, chain)
                idx = 1
            elif from_height != cand.chain.tip_height + 1:
                raise PeerError(f"batch starts at {from_height}, expected {cand.chain.tip_height + 1}")
            for raw in raw_headers[idx:]:
                cand.chain.append(BlockHeader.deserialize(raw))
        except (BlockRejected, PeerError, ValueError) as exc:
            reason = getattr(exc, "code", str(exc))
            self.rejected[peer_id] = str(reason)
            self.candidates.pop(peer_id, None)
            return
        self.candidates[peer_id] = cand

    def storage_bytes(self) -> int:
        return HEADER_SIZE * sum(len(cand.chain) for cand in self.candidates.values())


def sync_headers(peers: list[tuple[str, object]], params: ChainParams,
                 batch_size: int = HEADER_BATCH, store: HeaderStore | None = None) -> HeaderStore:
    """Download every peer's chain in `batch_size` batches. Passing an
    existing store resumes each candidate from its current tip. Unreachable
    or invalid peers are dropped; at least one must survive."""
    store = store if store is not None else HeaderStore(params)
    reachable = 0
    for peer_id, source in peers:
        cand = store.candidates.get(peer_id)
        height = cand.chain.tip_height + 1 if cand else 0
        try:
            while True:
                batch = source.fetch_headers(height, batch_size)
                if not batch:
                    break
                store.ingest(peer_id, batch, height)
                if peer_id in store.rejected:
                    break
                height += len(batch)
                if len(batch) < batch_size:
                    break
            reachable += 1
        except (ConnectionError, OSError) as exc:
            store.rejected[peer_id] = f"unreachable: {exc}"
    if reachable == 0:
        raise PeerError("all peers unreachable")
    return store


def choose_boundary(store: HeaderStore, k_user: int) -> tuple[int, bytes]:
    """Boundary block = the header k_user below the selected tip."""
    if k_user < 1:
        raise ValueError("k_user must be >= 1")
    selected = store.selected
    if selected is None:
        raise ChainTooShort("no candidate chain")
    chain = selected.chain
    height = chain.tip_height - k_user
    if height < chain.start_height:
        raise ChainTooShort(f"tip {chain.tip_height} with k={k_user}")
    return height, chain.hash_at(height)


class NodeHeaderSource:
    """Serve headers directly from an in-process simchain node."""

    def __init__(self, node):
        self.node = node

    def fetch_headers(self, from_height: int, count: int) -> list[bytes]:
        return [h.serialize() for h in self.node.headers_from(from_height, count)]


class StaticHeaderSource:
    """Serve a fixed list of raw headers (e.g. a forged chain)."""

    def __init__(self, raw_headers: list[bytes]):
        self.raw = raw_headers

    def fetch_headers(self, from_height: int, count: int) -> list[bytes]:
        return self.raw[from_height:from_height + count]
