"""Span tracing for the benchmark's traced runs.

The wrappers sit at the public layer boundaries of the unmodified `routee`
package. Each name is patched where its caller looks it up (for example
`routee.hub.formula_size` and `routee.hub.make_unlock`), so nothing under
`src/` changes. A span records its name, start, end, parent span and request
id in flat per-thread arrays; the arrays stay in memory until the run ends.

Request ids: in process the benchmark sets the frame index before it hands a
frame in. In the daemon, `netio.recv_frame`, `daemon.handle` and
`netio.send_frame` take it from the envelope's (session_id, seq), which the
client also knows, so client and server spans line up.
"""

from __future__ import annotations

import array
import functools
import pickle
import select
import statistics
import threading
import time

perf = time.perf_counter

NO_RID = (-1, 0)

# Spans whose total duration (not self time) is the metric, and its scale.
TOTAL_TIME = {
    "daemon.init": ("daemon.init_s", "s", 1.0),
    "lightclient.sync": ("lightclient.sync_ms", "ms", 1e3),
    "snapshot.dump": ("snapshot.dump_s", "s", 1.0),
    "snapshot.load": ("snapshot.load_s", "s", 1.0),
}

# Request-path spans: median self time per call, in microseconds.
SELF_TIME_US = [
    "wire.decode_request", "wire.encode_reply", "wire.signing_digest", "wire.frame",
    "session.open", "session.seal", "session.handshake",
    "crypto.auth_verify", "crypto.onchain_sign", "crypto.onchain_keygen",
    "hub.payment", "hub.settle", "hub.query_user", "hub.query_ledger", "hub.insert_block",
    "hub.conservation", "hub.dispatch",
    "transactions.sighash", "transactions.txid",
    "blocks.deserialize", "headers.append", "headers.merkle_root",
    "netio.recv_frame", "netio.send_frame", "daemon.handle", "client.endpoint",
]


class Buffer:
    """One thread's spans, as parallel arrays indexed by span number."""

    def __init__(self, on: bool):
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.rid_a = array.array("q")
        self.rid_b = array.array("q")
        self.calls = array.array("i")  # formula_size calls made directly inside the span
        self.stack: list[int] = []
        self.rid = NO_RID
        self.on = on
        self.attempts = 0
        self.built = 0
        self.depth_max = 0

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.rid_a.append(self.rid[0])
        self.rid_b.append(self.rid[1])
        self.calls.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf()
        self.stack.pop()

    def set_rid(self, i: int, rid: tuple[int, int]) -> None:
        self.rid_a[i], self.rid_b[i] = rid


def envelope_rid(frame_type: int, payload: bytes) -> tuple[int, int]:
    from routee.wire import FRAME_ENVELOPE

    if frame_type != FRAME_ENVELOPE or len(payload) < 16:
        return NO_RID
    return int.from_bytes(payload[:8], "big", signed=True), int.from_bytes(payload[8:16], "big")


class Tracer:
    """Owns the span buffers of every thread in one process. With
    `always_on` every wrapped call is recorded (the daemon); otherwise only
    calls made while the benchmark has switched the calling thread on."""

    def __init__(self, always_on: bool = False):
        self.always_on = always_on
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list[Buffer] = []
        self.endpoints: list = []
        self._patches: list[tuple[object, str, object]] = []

    def buf(self) -> Buffer:
        b = getattr(self._local, "b", None)
        if b is None:
            b = Buffer(self.always_on)
            with self._lock:
                self.buffers.append(b)
            self._local.b = b
        return b

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # --- wrappers ---

    def span(self, fn, name: str):
        nid, buf = self.nid(name), self.buf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            b = buf()
            if not b.on:
                return fn(*args, **kwargs)
            i = b.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                b.close(i)

        return traced

    def _recv_frame(self, fn):
        nid, buf = self.nid("netio.recv_frame"), self.buf

        @functools.wraps(fn)
        def traced(sock):
            # idle until the peer sends: waiting for a request is not work
            select.select([sock], [], [])
            b = buf()
            i = b.open(nid)
            try:
                frame_type, payload = fn(sock)
            finally:
                b.close(i)
            b.rid = envelope_rid(frame_type, payload)
            b.set_rid(i, b.rid)
            return frame_type, payload

        return traced

    def _send_frame(self, fn):
        nid, buf = self.nid("netio.send_frame"), self.buf

        @functools.wraps(fn)
        def traced(sock, frame_type, payload):
            b = buf()
            b.rid = envelope_rid(frame_type, payload)
            i = b.open(nid)
            try:
                return fn(sock, frame_type, payload)
            finally:
                b.close(i)

        return traced

    def _daemon_handle(self, fn):
        nid, buf = self.nid("daemon.handle"), self.buf

        @functools.wraps(fn)
        def traced(daemon, frame_type, payload, ctx):
            b = buf()
            b.rid = envelope_rid(frame_type, payload)
            i = b.open(nid)
            try:
                return fn(daemon, frame_type, payload, ctx)
            finally:
                b.close(i)

        return traced

    def _handshake(self, fn):
        traced_inner = self.span(fn, "session.handshake")
        endpoints = self.endpoints

        @functools.wraps(fn)
        def traced(endpoint, payload):
            if endpoint not in endpoints:
                endpoints.append(endpoint)
            return traced_inner(endpoint, payload)

        return traced

    def _formula_size(self, fn):
        buf = self.buf

        @functools.wraps(fn)
        def counted(n_inputs, n_outputs):
            b = buf()
            if b.on and b.stack:
                b.calls[b.stack[-1]] += 1
            return fn(n_inputs, n_outputs)

        return counted

    def _try_build(self, fn):
        buf = self.buf

        @functools.wraps(fn)
        def counted(hub):
            b = buf()
            if not b.on:
                return fn(hub)
            if hub.plan is None and hub.owned and hub.queue:
                b.attempts += 1
                b.depth_max = max(b.depth_max, len(hub.queue))
            plan = fn(hub)
            if plan is not None:
                b.built += 1
            return plan

        return counted

    # --- installation ---

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            self._patch(owner, attr, staticmethod(self.span(original.__func__, name)))
        elif isinstance(original, classmethod):
            self._patch(owner, attr, classmethod(self.span(original.__func__, name)))
        else:
            self._patch(owner, attr, self.span(original, name))

    def install(self, role: str) -> None:
        """Patch the hub-side boundaries. `role` is "inproc" (frames through
        LocalHubEndpoint), "daemon" (inside routee-hubd) or "client" (the
        load process of the TCP workload)."""
        import routee.blocks
        import routee.client
        import routee.crypto
        import routee.daemon
        import routee.headers
        import routee.hub
        import routee.lightclient
        import routee.netio
        import routee.session
        import routee.snapshot
        import routee.transactions
        import routee.wire as wire

        if role in ("inproc", "client"):
            self._patch_span(routee.lightclient, "sync_headers", "lightclient.sync")
        if role == "client":
            return
        hub = routee.hub.Hub
        for attr, name in [
            ("multi_hop_payment", "hub.payment"),
            ("request_settlement", "hub.settle"),
            ("query_user", "hub.query_user"),
            ("query_ledger", "hub.query_ledger"),
            ("insert_block", "hub.insert_block"),
            ("conservation", "hub.conservation"),
            ("apply_request", "hub.dispatch"),
        ]:
            self._patch_span(hub, attr, name)
        self._patch(hub, "try_build_settlement", self._try_build(hub.try_build_settlement))
        self._patch(routee.hub, "formula_size", self._formula_size(routee.hub.formula_size))
        self._patch_span(routee.hub, "make_unlock", "crypto.onchain_sign")
        self._patch_span(routee.hub, "merkle_root", "headers.merkle_root")
        for scheme in (routee.crypto.FastScheme, routee.crypto.RsaScheme):
            self._patch_span(scheme, "verify", "crypto.auth_verify")
        for scheme in (routee.crypto.FastScheme, routee.crypto.EcdsaScheme):
            self._patch_span(scheme, "generate", "crypto.onchain_keygen")

        self._patch_span(routee.session.Session, "open", "session.open")
        self._patch_span(routee.session.Session, "seal", "session.seal")
        self._patch(
            routee.session.HubSessionEndpoint, "handle_init",
            self._handshake(routee.session.HubSessionEndpoint.handle_init),
        )
        self._patch_span(wire, "decode_request", "wire.decode_request")
        self._patch_span(wire, "encode_ok", "wire.encode_reply")
        self._patch_span(wire, "encode_err", "wire.encode_reply")
        for cls in (wire.AddDeposit, wire.UpdateBoundary, wire.Payment, wire.Settle,
                    wire.QueryUser, wire.Terminate):
            self._patch_span(cls, "signing_digest", "wire.signing_digest")
        self._patch_span(wire.InsertBlock, "signing_digest_for", "wire.signing_digest")

        self._patch_span(routee.transactions.Transaction, "sighash", "transactions.sighash")
        self._patch_span(routee.transactions.Transaction, "txid", "transactions.txid")
        self._patch_span(routee.blocks.Block, "deserialize", "blocks.deserialize")
        self._patch_span(routee.headers.HeaderChain, "append", "headers.append")
        self._patch_span(routee.snapshot, "dump_hub", "snapshot.dump")
        self._patch_span(routee.snapshot, "load_hub", "snapshot.load")

        if role == "inproc":
            self._patch_span(routee.client.LocalHubEndpoint, "handle_frame", "client.endpoint")
            self._patch_span(routee.client, "pack_frame", "wire.frame")
            self._patch_span(routee.client, "unpack_frame", "wire.frame")
        elif role == "daemon":
            self._patch(routee.netio, "recv_frame", self._recv_frame(routee.netio.recv_frame))
            self._patch(routee.netio, "send_frame", self._send_frame(routee.netio.send_frame))
            daemon = routee.daemon.HubDaemon
            self._patch(daemon, "_handle", self._daemon_handle(daemon._handle))
            self._patch_span(daemon, "run_init", "daemon.init")
        else:
            raise ValueError(f"unknown role {role!r}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- export ---

    def export(self) -> dict:
        """Plain data for one process: names, span arrays and counters."""
        return {
            "names": list(self.names),
            "buffers": [
                {key: getattr(b, key) for key in
                 ("name", "parent", "start", "end", "rid_a", "rid_b", "calls")}
                for b in self.buffers
            ],
            "attempts": sum(b.attempts for b in self.buffers),
            "built": sum(b.built for b in self.buffers),
            "depth_max": max((b.depth_max for b in self.buffers), default=0),
            "live": len(self.endpoints[-1].sessions) if self.endpoints else 0,
        }

    def write(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump(self.export(), fh, protocol=pickle.HIGHEST_PROTOCOL)


def read_export(path: str) -> dict:
    # only files this benchmark's own daemon launcher wrote
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _median_with_zeros(values: list[float], n: int) -> float:
    """Median over n requests, where requests missing from `values` count 0."""
    return statistics.median(values + [0.0] * (n - len(values))) if n else 0.0


def analyse(exports: list[dict], requests: dict, tcp: bool) -> dict:
    """Turn raw spans into per-layer metrics and the coverage check.

    `requests` maps a request id to (kind, end-to-end seconds) for every
    request of the traced timed phase. Over TCP the residual `daemon.wait`
    (round trip minus the recv, handle and send spans) is added per request,
    so that the layers partition the round trip.
    """
    per_name: dict[str, list[float]] = {}
    totals: dict[str, list[float]] = {}
    settle_calls: list[int] = []
    per_req: dict[tuple[int, int], dict[str, float]] = {}
    roots: dict[tuple[int, int], float] = {}
    handshake: list[float] = []
    attempts = built = depth_max = live = 0

    for ex in exports:
        names = ex["names"]
        attempts += ex["attempts"]
        built += ex["built"]
        depth_max = max(depth_max, ex["depth_max"])
        live = max(live, ex["live"])
        for b in ex["buffers"]:
            n = len(b["start"])
            child = [0.0] * n
            parent, start, end = b["parent"], b["start"], b["end"]
            for i in range(n):
                p = parent[i]
                if p >= 0:
                    child[p] += end[i] - start[i]
            for i in range(n):
                name = names[b["name"][i]]
                dur = end[i] - start[i]
                if name in TOTAL_TIME:
                    totals.setdefault(name, []).append(dur)
                    continue
                self_t = dur - child[i]
                if name == "session.handshake":
                    handshake.append(self_t)
                rid = (b["rid_a"][i], b["rid_b"][i])
                if rid not in requests:
                    continue
                per_name.setdefault(name, []).append(self_t)
                slot = per_req.setdefault(rid, {})
                slot[name] = slot.get(name, 0.0) + self_t
                if name == "hub.settle":
                    settle_calls.append(b["calls"][i])
                if name in ("netio.recv_frame", "daemon.handle", "netio.send_frame"):
                    roots[rid] = roots.get(rid, 0.0) + dur

    if tcp:
        for rid, (kind, e2e) in requests.items():
            if rid in roots:
                per_req.setdefault(rid, {})["daemon.wait"] = e2e - roots[rid]
        per_name["daemon.wait"] = [r["daemon.wait"] for r in per_req.values() if "daemon.wait" in r]

    metrics: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_US:
        values = handshake if name == "session.handshake" else per_name.get(name, [])
        metrics[name + "_us"] = (statistics.median(values) * 1e6 if values else 0.0, "us")
    wait = per_name.get("daemon.wait", [])
    metrics["daemon.wait_us"] = (statistics.median(wait) * 1e6 if wait else 0.0, "us")
    for name, (metric, unit, scale) in TOTAL_TIME.items():
        values = totals.get(name, [])
        metrics[metric] = (statistics.median(values) * scale if values else 0.0, unit)
    metrics["session.live"] = (float(live), "count")
    metrics["hub.plan_attempts"] = (float(attempts), "count")
    metrics["hub.plans_built"] = (float(built), "count")
    metrics["hub.plan_yield"] = (built / attempts if attempts else 0.0, "ratio")
    metrics["hub.queue_depth_max"] = (float(depth_max), "count")
    metrics["transactions.formula_size_calls"] = (
        sum(settle_calls) / len(settle_calls) if settle_calls else 0.0, "count")

    # coverage: per kind, summed per-layer self-time medians against the
    # kind's traced end-to-end median
    by_kind: dict[str, list[tuple[int, int]]] = {}
    for rid, (kind, _) in requests.items():
        by_kind.setdefault(kind, []).append(rid)
    coverage = {}
    for kind, rids in sorted(by_kind.items()):
        e2e = statistics.median(requests[r][1] for r in rids)
        layers: dict[str, list[float]] = {}
        for r in rids:
            for name, value in per_req.get(r, {}).items():
                layers.setdefault(name, []).append(value)
        summed = sum(_median_with_zeros(v, len(rids)) for v in layers.values())
        gap = (summed - e2e) / e2e if e2e else 0.0
        coverage[kind] = {
            "requests": len(rids),
            "e2e_median_us": round(e2e * 1e6, 3),
            "layer_sum_us": round(summed * 1e6, 3),
            "gap": round(gap, 4),
            "within_10pct": abs(gap) <= 0.10,
        }
    return {"metrics": metrics, "coverage": coverage}
