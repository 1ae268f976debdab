"""The hub daemon: serves the hub's frame pipeline (`client.HubFrontEnd`) over
TCP.

Init runs once, while the daemon is built and before it listens: with
`auto_init` 1 and no chain in the snapshot, the hub pulls its headers and
fee-window blocks over one connection to the block source, which closes
before the daemon listens. No request can start init, so a hub
built without a chain answers `not-initialized` until it is restarted with
`auto_init` 1.

One event loop (`netio.FrameServer`) owns every connection and applies one
request at a time, so the hub has a single writer without a lock, and each
session's messages are answered in the order they arrive. A connection's
session leaves the session table when the connection closes or idles out.
Between frames the loop signs the outstanding settlement plan, a slice of
`SIGN_SLICE_S` at a time, so no connection waits for a whole plan's
signatures. Once the plan is signed, and once this process has handed out a
manager key, each turn derives one key ahead, until the hub's pool holds
`KEY_POOL_SIZE`, so the requests that hand out fresh keys find them derived
(`Hub.fill_key_pool`). A daemon restarted only to serve reads derives none.
Snapshots are written on demand and on shutdown, after the loop has stopped;
a plan still being signed is stored as it stands, and signing resumes after
a load. A fault ends the loop and writes none, keeping the last one.

A restart runs this module's import, so it imports only what serving needs:
init imports the block source's client and `lightclient` itself.
"""

from __future__ import annotations

import os
import re
import time

from . import snapshot as snapshot_mod
from .client import HubFrontEnd
from .crypto import CryptoSuite, below, hex_address
from .errors import AuthFailure, ConfigError, InitFailure, SnapshotError
from .headers import BlockHeader
from .hub import FEE_WINDOW_CAPACITY, Hub, HubConfig
from .netio import FrameServer
from .session import HubSessionEndpoint

SIGN_SLICE_S = 0.005  # plan signing per loop turn: about what another frame may wait
# keys derived ahead: a block cycle with two deposits draws three, the deposits'
# and the next plan's leftover; one more covers a turn that answers two of
# those requests
KEY_POOL_SIZE = 4


class DaemonConfig(dict):
    """Flat configuration: `DEFAULTS`, then the overrides (`routee-hubd
    --set`). `DEFAULTS` maps each key to its default and to the parser that
    checks a value; the config holds the parsed values, and `given` the keys
    the overrides set. An unknown key or a value its parser refuses raises
    `ConfigError` naming the key and value."""

    DEFAULTS = {
        "listen_host": ("127.0.0.1", str),
        "listen_port": ("0", below(1 << 16)),
        "simchain_host": ("127.0.0.1", str),
        "simchain_port": ("0", below(1 << 16)),
        "snapshot_path": ("", str),
        "min_routing_fee": ("1", below(1 << 64)),
        "host_pubkey_hex": ("", bytes.fromhex),
        "host_settle_address_hex": ("00" * 20, hex_address),
        "hub_key_path": ("", str),
        "crypto_mode": ("fast-test", CryptoSuite.from_mode),
        "auto_init": ("1", below(2)),
    }
    # the settings a snapshot keeps for itself, each key with its `HubConfig` field
    HELD = {
        "min_routing_fee": "min_routing_fee",
        "host_pubkey_hex": "host_public_key",
        "host_settle_address_hex": "host_settle_address",
        "crypto_mode": "suite",
    }

    def __init__(self, overrides: dict | None = None):
        self.given = set(overrides or ())
        values = {key: default for key, (default, _) in self.DEFAULTS.items()}
        for key, value in (overrides or {}).items():
            if key not in values:
                raise ConfigError(f"unknown key {key!r}")
            values[key] = str(value)
        for key, value in values.items():
            try:
                self[key] = self.DEFAULTS[key][1](value)
            except ValueError as exc:
                raise ConfigError(f"bad {key} {value!r}: {exc}") from None

    def hub_config(self) -> HubConfig:
        return HubConfig(**{field: self[key] for key, field in self.HELD.items()})

    def check_snapshot(self, snapshot: HubConfig) -> None:
        """Refuse, with `ConfigError` naming the key, a setting the overrides
        gave that a loaded snapshot holds with another value; crypto suites
        compare by mode."""
        for key, field in self.HELD.items():
            ours, theirs = self[key], getattr(snapshot, field)
            if isinstance(ours, CryptoSuite):
                ours, theirs = ours.mode, theirs.mode
            if key in self.given and ours != theirs:
                raise ConfigError(f"{key} differs from the loaded snapshot's")


class HubDaemon(HubFrontEnd):
    """The frame pipeline over TCP, one session per connection, with the
    hub's snapshot file. Init from the block source, if configured, runs
    before the listener exists."""

    def __init__(self, config: DaemonConfig):
        self.config = config
        snapshot_path = config["snapshot_path"]
        if snapshot_path and os.path.exists(snapshot_path):
            with open(snapshot_path, "rb") as fh:
                hub = snapshot_mod.load_hub(fh.read())
            config.check_snapshot(hub.config)
        else:
            hub = Hub(config.hub_config())
        hub_key = None
        key_path = config["hub_key_path"]
        if key_path:
            try:
                with open(key_path) as fh:
                    text = fh.read().strip()
                if not re.fullmatch("[0-9a-fA-F]{64}", text):
                    raise ValueError("want a 32-byte X25519 secret in hex")
            except (OSError, ValueError) as exc:
                raise AuthFailure(f"bad hub key file {key_path!r}: {exc}") from None
            hub_key = bytes.fromhex(text)
        super().__init__(hub, HubSessionEndpoint(hub_key))
        # a key index past the one at start means this process has handed
        # out a key, and may be asked for the next
        self._next_key_at_start = hub.next_key
        if config["auto_init"] and hub.chain is None:
            self.run_init()
        self.server = FrameServer(
            (config["listen_host"], config["listen_port"]), self._handle, self.drop_session,
            self.frame_limit, self._idle_slice,
        )

    @property
    def port(self) -> int:
        return self.server.port

    # --- lifecycle ---

    def run_init(self) -> None:
        """Pull every header from genesis up, `lightclient.HEADER_BATCH` at a
        time until a short batch, and the fee-window blocks over one
        connection to the block source, then initialize the hub."""
        from . import lightclient
        from .simchain_server import SimchainClient

        with SimchainClient(self.config["simchain_host"], self.config["simchain_port"]) as source:
            raw = []
            while True:
                batch = source.fetch_headers(len(raw), lightclient.HEADER_BATCH)
                raw += batch
                if len(batch) < lightclient.HEADER_BATCH:
                    break
            if not raw:
                raise InitFailure("block source returned no headers")
            tip_height = len(raw) - 1
            fee_heights = range(max(0, tip_height - FEE_WINDOW_CAPACITY + 1), tip_height + 1)
            fee_blocks = [block for block in map(source.get_block, fee_heights) if block is not None]
        headers = [BlockHeader.deserialize(h) for h in raw]
        self.hub.initialize(headers[0], 0, headers[1:], fee_blocks)

    def start(self) -> None:
        """Serve from a background thread."""
        self.server.start_background()

    def stop(self) -> None:
        """Stop the loop, so that no request lands after the snapshot, then
        write the snapshot, unless a fault ended the loop."""
        self.server.shutdown()
        self.server.server_close()
        if not self.server.failed:
            self.write_snapshot()

    def write_snapshot(self) -> int:
        """Write the snapshot durably: the file's bytes are on disk before it
        replaces the old one, and the rename is on disk before this returns.
        A write the system refuses raises `SnapshotError`."""
        path = self.config["snapshot_path"]
        if not path:
            return 0
        data = snapshot_mod.dump_hub(self.hub)
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            raise SnapshotError(f"{path!r}: {exc}") from None
        return len(data)

    def _handle(self, frame_type: int, payload: bytes, ctx: dict):
        # the frame server's callback; bench/tracing.py wraps it by this name
        return self.handle(frame_type, payload, ctx)

    def _idle_slice(self) -> bool:
        # the loop's idle hook: a turn signs the outstanding plan for one
        # slice or, once it is signed and this process has handed out a key,
        # derives one key for the pool; with neither left it returns at once
        plan = self.hub.plan
        if plan is None or plan.signed:
            if self.hub.next_key == self._next_key_at_start:
                return True
            return self.hub.fill_key_pool(KEY_POOL_SIZE)
        self.hub.sign_plan(time.perf_counter() + SIGN_SLICE_S)
        return False
