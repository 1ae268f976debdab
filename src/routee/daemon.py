"""The hub daemon: serves the hub's frame pipeline (`client.HubFrontEnd`) over
TCP.

One event loop (`netio.FrameServer`) owns every connection and applies one
request at a time, so the hub has a single writer without a lock, and each
session's messages are answered in the order they arrive. A connection's
session leaves the session table when the connection closes or idles out.
Between frames the loop signs the outstanding settlement plan, a slice of
`SIGN_SLICE_S` at a time, so no connection waits for a whole plan's
signatures. Snapshots are written on demand and on shutdown, after the loop
has stopped; a plan still being signed is stored as it stands, and signing
resumes after a load.
"""

from __future__ import annotations

import os
import re
import time

from . import snapshot as snapshot_mod
from .client import HubFrontEnd, Keys
from .crypto import CryptoSuite
from .errors import AuthFailure, InitFailure
from .headers import BlockHeader, ChainParams
from .hub import FEE_WINDOW_CAPACITY, Hub, HubConfig
from .netio import FrameServer
from .session import HubSessionEndpoint
from .simchain_server import SimchainClient

SIGN_SLICE_S = 0.005  # plan signing per loop turn: about what another frame may wait


class DaemonConfig:
    """Flat configuration: defaults < config file < ROUTEE_* env < overrides.
    The keys are those of `DEFAULTS`."""

    DEFAULTS = {
        "listen_host": "127.0.0.1",
        "listen_port": "0",
        "simchain_host": "127.0.0.1",
        "simchain_port": "0",
        "snapshot_path": "",
        "min_routing_fee": "1",
        "host_pubkey_hex": "",
        "host_key_path": "",  # alternative to host_pubkey_hex: a key file
        "host_settle_address_hex": "00" * 20,
        "hub_key_path": "",
        "start_height": "0",
        "crypto_mode": "fast-test",
        "retarget_interval": "100000",
        "target_spacing": "600",
        "pow_limit_bits": str(0x207FFFFF),
        "auto_init": "1",
    }

    def __init__(self, path: str | None = None, overrides: dict | None = None):
        values = dict(self.DEFAULTS)
        if path:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#") or "=" not in line:
                        continue
                    key, _, value = line.partition("=")
                    values[key.strip()] = value.strip()
        for key in list(values):
            env = os.environ.get(f"ROUTEE_{key.upper()}")
            if env is not None:
                values[key] = env
        for key, value in (overrides or {}).items():
            if value is not None:
                values[key] = str(value)
        self.values = values

    def __getitem__(self, key: str) -> str:
        return self.values[key]

    def get_int(self, key: str) -> int:
        return int(self.values[key], 0)

    def chain_params(self) -> ChainParams:
        return ChainParams(
            self.get_int("retarget_interval"),
            self.get_int("target_spacing"),
            self.get_int("pow_limit_bits"),
        )

    def hub_config(self) -> HubConfig:
        host_pk = bytes.fromhex(self["host_pubkey_hex"])
        if not host_pk and self["host_key_path"]:
            host_pk = Keys.load(self["host_key_path"]).public
        return HubConfig(
            host_public_key=host_pk,
            host_settle_address=bytes.fromhex(self["host_settle_address_hex"]),
            min_routing_fee=self.get_int("min_routing_fee"),
            chain_params=self.chain_params(),
            suite=CryptoSuite.from_mode(self["crypto_mode"]),
        )


class HubDaemon(HubFrontEnd):
    """The frame pipeline over TCP, one session per connection, with the
    hub's snapshot file and its block source for init."""

    def __init__(self, config: DaemonConfig):
        self.config = config
        hub = Hub(config.hub_config())
        snapshot_path = config["snapshot_path"]
        if snapshot_path and os.path.exists(snapshot_path):
            with open(snapshot_path, "rb") as fh:
                hub = snapshot_mod.load_hub(fh.read())
        hub_key = None
        key_path = config["hub_key_path"]
        if key_path and os.path.exists(key_path):
            with open(key_path) as fh:
                text = fh.read().strip()
            if not re.fullmatch("[0-9a-fA-F]{64}", text):
                raise AuthFailure(f"bad hub key file {key_path!r}: want a 32-byte X25519 secret in hex")
            hub_key = bytes.fromhex(text)
        super().__init__(hub, HubSessionEndpoint(hub_key))
        self.simchain = SimchainClient(config["simchain_host"], config.get_int("simchain_port"))
        self.server = FrameServer(
            (config["listen_host"], config.get_int("listen_port")), self._handle, self.drop_session,
            self.frame_limit, self._sign_slice,
        )

    @property
    def port(self) -> int:
        return self.server.port

    # --- lifecycle ---

    def run_init(self) -> None:
        """Pull the start header, the newer headers, and the fee-window blocks
        from the block source, then initialize the hub."""
        tip_height, _ = self.simchain.tip()
        start_height = self.config.get_int("start_height")
        interval = self.config.get_int("retarget_interval")
        if start_height % interval:
            raise InitFailure(f"start height {start_height} not aligned to interval {interval}")
        raw = self.simchain.fetch_headers(start_height, tip_height - start_height + 1)
        if not raw:
            raise InitFailure("block source returned no headers")
        headers = [BlockHeader.deserialize(h) for h in raw]
        first_fee_height = max(start_height, tip_height - FEE_WINDOW_CAPACITY + 1)
        fee_blocks = []
        for height in range(first_fee_height, tip_height + 1):
            block = self.simchain.get_block(height)
            if block is not None:
                fee_blocks.append(block)
        self.hub.initialize(headers[0], start_height, headers[1:], fee_blocks)

    def auto_init(self) -> None:
        """Run init at start-up unless `auto_init` is off or the hub already
        has a chain (from its snapshot)."""
        if self.config["auto_init"] not in ("0", "false") and self.hub.chain is None:
            self.run_init()

    def start(self) -> None:
        """Init as configured, then serve from a background thread."""
        self.auto_init()
        self.server.start_background()

    def stop(self) -> None:
        """Stop the loop, so that no request lands after the snapshot, then
        write the snapshot."""
        self.server.shutdown()
        self.write_snapshot()
        self.server.server_close()

    def write_snapshot(self) -> int:
        """Write the snapshot durably: the file's bytes are on disk before it
        replaces the old one, and the rename is on disk before this returns."""
        path = self.config["snapshot_path"]
        if not path:
            return 0
        data = snapshot_mod.dump_hub(self.hub)
        tmp = path + ".tmp"
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
        return len(data)

    def _handle(self, frame_type: int, payload: bytes, ctx: dict):
        # the frame server's callback; bench/tracing.py wraps it by this name
        return self.handle(frame_type, payload, ctx)

    def _sign_slice(self) -> bool:
        # the loop's idle hook; with no plan left to sign it returns at once
        return self.hub.sign_plan(time.perf_counter() + SIGN_SLICE_S)
