"""User-side header synchronization and boundary-block selection.

The client downloads header chains from several peers in fixed-size batches,
validates each candidate fully (base target, linkage, proof of work,
retarget), and keeps the one with the most cumulative work; ties go to the
earliest peer. A user then picks its boundary block a self-chosen
confirmation depth below the tip.

A header source is anything with `fetch_headers(from_height, count)`
returning raw headers: a simchain node, a fixed list, or a network peer.
Storage is counted as 80 bytes per header held.
"""

from __future__ import annotations

from . import wire
from .errors import ChainTooShort, PeerError, RouteeError
from .headers import HEADER_SIZE, BlockHeader, ChainParams, HeaderChain

HEADER_BATCH = 2016


@wire.plain
class PeerCandidate:
    peer_id: str
    chain: HeaderChain


class HeaderStore:
    """Per-peer validated candidate chains plus the current selection."""

    def __init__(self):
        self.candidates: dict[str, PeerCandidate] = {}
        self.rejected: dict[str, str] = {}

    @property
    def selected(self) -> PeerCandidate | None:
        best = None
        for cand in self.candidates.values():
            if best is None or cand.chain.cumulative_work > best.chain.cumulative_work:
                best = cand
        return best

    def storage_bytes(self) -> int:
        return HEADER_SIZE * sum(len(cand.chain) for cand in self.candidates.values())


def sync_headers(peers: list[tuple[str, object]], params: ChainParams,
                 batch_size: int = HEADER_BATCH, store: HeaderStore | None = None) -> HeaderStore:
    """Download every peer's chain in `batch_size` batches, its first batch
    from genesis. Passing an existing store resumes each candidate from its
    current tip. Unreachable or invalid peers are dropped; at least one must
    survive, else `PeerError`."""
    store = store if store is not None else HeaderStore()
    reachable = 0
    for peer_id, source in peers:
        cand = store.candidates.get(peer_id)
        height = cand.chain.tip_height + 1 if cand else 0
        try:
            while True:
                batch = source.fetch_headers(height, batch_size)
                if not batch:
                    break
                headers = [BlockHeader.deserialize(raw) for raw in batch]
                if cand is None:
                    cand = store.candidates[peer_id] = PeerCandidate(peer_id, HeaderChain(params, headers))
                else:
                    for header in headers:
                        cand.chain.append(header)
                height += len(batch)
                if len(batch) < batch_size:
                    break
            reachable += 1
        except OSError as exc:
            store.rejected[peer_id] = f"unreachable: {exc}"
        # an error or malformed reply, or a header that does not verify: the
        # peer answered, wrongly
        except (RouteeError, ValueError) as exc:
            reachable += 1
            store.rejected[peer_id] = getattr(exc, "code", str(exc))
            store.candidates.pop(peer_id, None)
    if reachable == 0:
        raise PeerError("all peers unreachable")
    if not store.candidates:
        raise PeerError(f"no peer served a valid chain: {store.rejected}")
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
    if height < 0:
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
