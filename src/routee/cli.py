"""Command-line entry points: `routee` (host and user client), `routee-hubd`
(the hub daemon), and `routee-simchain` (the simulated chain server).

Every command supports --json for machine-readable output; the flag may come
before or after the subcommand (`routee --json pay ...` or `routee pay --json ...`).
Protocol errors exit non-zero with a structured {"error": code, "detail": ...}
payload.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys

from . import wire
from .client import Keys, RemoteHub
from .crypto import below, get_scheme, hex_address
from .daemon import DaemonConfig, HubDaemon
from .errors import RouteeError
from .headers import ChainParams
from .transactions import Transaction


def _emit(args, payload: dict) -> None:
    clean = {k: (v.hex() if isinstance(v, bytes) else v) for k, v in payload.items()}
    if args.json:
        print(json.dumps(clean, sort_keys=True))
    else:
        for key, value in clean.items():
            print(f"{key}: {value}")


def _fail(args, exc: RouteeError) -> int:
    payload = {"error": exc.code, "detail": exc.detail}
    if args.json:
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error: {exc.code}" + (f" ({exc.detail})" if exc.detail else ""), file=sys.stderr)
    return 2


def _run(args, fn) -> int:
    """Run `fn(args)`; a protocol, connection or file error exits 2 with a structured error."""
    try:
        return fn(args)
    except RouteeError as exc:
        return _fail(args, exc)
    except OSError as exc:
        return _fail(args, RouteeError(str(exc)))


def _hub(args) -> RemoteHub:
    return RemoteHub(args.host, args.port)


def _send_signed(args, keys: Keys, build) -> int:
    """Read the user's nonce, then sign and send `build(nonce)` and print the reply."""
    with _hub(args) as hub:
        nonce = hub.request(keys.sign(wire.QueryUser(keys.address), hub.session_id))["nonce"]
        result = hub.request(keys.sign(build(nonce)))
    _emit(args, result)
    return 0


# ----------------------------------------------------------------------
# user + host client

def cmd_keygen(args) -> int:
    keys = Keys.generate(get_scheme(args.scheme))
    keys.save(args.out)
    _emit(args, {"key_file": args.out, "address": keys.address, "scheme": args.scheme})
    return 0


def cmd_add_user(args) -> int:
    keys = Keys.load(args.key)
    with _hub(args) as hub:
        result = hub.request(wire.AddUser(keys.public, args.settle_address))
    _emit(args, result)
    return 0


def cmd_add_deposit(args) -> int:
    keys = Keys.load(args.key)
    return _send_signed(args, keys, lambda nonce: wire.AddDeposit(keys.address, nonce))


def _sync_store(args):
    from .lightclient import sync_headers
    from .simchain_server import SimchainClient

    peers = [(f"peer{idx}:{host}:{port}", SimchainClient(host, port))
             for idx, (host, port) in enumerate(args.peer)]
    try:
        return sync_headers(peers, ChainParams.regtest())
    finally:
        for _, peer in peers:
            peer.close()


def cmd_sync_headers(args) -> int:
    store = _sync_store(args)
    selected = store.selected
    _emit(
        args,
        {
            "peers_ok": len(store.candidates),
            "peers_dropped": len(store.rejected),
            "tip_height": selected.chain.tip_height,
            "tip_hash": selected.chain.tip_hash,
            "storage_bytes": store.storage_bytes(),
        },
    )
    return 0


def cmd_set_boundary(args) -> int:
    from .lightclient import choose_boundary

    keys = Keys.load(args.key)
    height, block_hash = choose_boundary(_sync_store(args), args.k)
    return _send_signed(args, keys, lambda nonce: wire.UpdateBoundary(keys.address, nonce, height, block_hash))


def cmd_pay(args) -> int:
    keys = Keys.load(args.key)
    batch = [wire.PaymentItem(args.to, args.amount, args.fee)] if args.to is not None else []
    batch += args.batch or []
    return _send_signed(args, keys, lambda nonce: wire.Payment(keys.address, nonce, batch))


def cmd_settle(args) -> int:
    keys = Keys.load(args.key)
    return _send_signed(args, keys, lambda nonce: wire.Settle(keys.address, nonce, args.amount, args.fee))


def cmd_request(args) -> int:
    """Send the subcommand's request, which has no fields, and print the reply."""
    with _hub(args) as hub:
        result = hub.request(args.request())
    _emit(args, result)
    return 0


def cmd_balance(args) -> int:
    keys = Keys.load(args.key)
    with _hub(args) as hub:
        result = hub.request(keys.sign(wire.QueryUser(keys.address), hub.session_id))
    _emit(args, result)
    return 0


def cmd_insert_block(args) -> int:
    from .simchain_server import SimchainClient

    host_keys = Keys.load(args.host_key)
    with SimchainClient(*args.simchain) as sim, _hub(args) as hub:
        tip = hub.request(wire.QueryLatestBlock())["height"]
        target = sim.tip()[0] if args.height is None else args.height
        inserted = 0
        for height in range(tip + 1, target + 1):
            block = sim.get_block(height)
            if block is None:
                break
            tip = hub.request(host_keys.sign(wire.InsertBlock(block.serialize()), block.header.hash()))["height"]
            inserted += 1
    _emit(args, {"inserted": inserted, "tip": tip})
    return 0


def cmd_broadcast(args) -> int:
    with _hub(args) as hub:
        plan = hub.request(wire.GetSettlement())
    if not plan.get("present"):
        _emit(args, {"broadcast": 0})
        return 0
    from .simchain_server import SimchainClient

    tx = Transaction.deserialize(plan["tx"])
    with SimchainClient(*args.simchain) as sim:
        sim.submit_tx(tx)
    _emit(args, {"broadcast": 1, "txid": tx.txid()})
    return 0


def cmd_terminate(args) -> int:
    host_keys = Keys.load(args.host_key)
    with _hub(args) as hub:
        state = hub.request(wire.QueryLatestBlock())
        result = hub.request(host_keys.sign(wire.Terminate(state["hash"])))
    _emit(args, result)
    return 0


def _add_hub_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=u16, required=True)


def _depth(value: str) -> int:
    k = int(value)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return k


u16 = below(1 << 16)  # a port, or blocks to mine: what `wire.MineRequest`'s count holds
u64 = below(1 << 64)  # an amount or fee: what an unsigned 8-byte wire field holds


def host_port(value: str) -> tuple[str, int]:
    host, sep, number = value.rpartition(":")
    if not sep:
        raise ValueError(value)
    return host, u16(number)


def batch_item(value: str) -> wire.PaymentItem:
    addr, amount, fee = value.split(":")
    return wire.PaymentItem(hex_address(addr), u64(amount), u64(fee))


def _add_peer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--peer", type=host_port, action="append", required=True, help="host:port, repeatable")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="routee")
    parser.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen")
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", default="fast", choices=["fast", "rsa3072"])
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("add-user")
    _add_hub_flags(p)
    p.add_argument("--key", required=True)
    p.add_argument("--settle-address", type=hex_address, required=True, help="20-byte hex")
    p.set_defaults(fn=cmd_add_user)

    p = sub.add_parser("add-deposit")
    _add_hub_flags(p)
    p.add_argument("--key", required=True)
    p.set_defaults(fn=cmd_add_deposit)

    p = sub.add_parser("sync-headers")
    _add_peer_flags(p)
    p.set_defaults(fn=cmd_sync_headers)

    p = sub.add_parser("set-boundary")
    _add_hub_flags(p)
    _add_peer_flags(p)
    p.add_argument("--key", required=True)
    p.add_argument("--k", type=_depth, default=6, help="confirmation depth below tip")
    p.set_defaults(fn=cmd_set_boundary)

    p = sub.add_parser("pay")
    _add_hub_flags(p)
    p.add_argument("--key", required=True)
    p.add_argument("--to", type=hex_address, help="receiver address hex")
    p.add_argument("--amount", type=u64, default=0)
    p.add_argument("--fee", type=u64, default=0)
    p.add_argument("--batch", type=batch_item, action="append", help="addrhex:amount:fee, repeatable")
    p.set_defaults(fn=cmd_pay)

    p = sub.add_parser("settle")
    _add_hub_flags(p)
    p.add_argument("--key", required=True)
    p.add_argument("--amount", type=u64, required=True)
    p.add_argument("--fee", type=u64, required=True)
    p.set_defaults(fn=cmd_settle)

    p = sub.add_parser("balance")
    _add_hub_flags(p)
    p.add_argument("--key", required=True)
    p.set_defaults(fn=cmd_balance)

    p = sub.add_parser("latest-block")
    _add_hub_flags(p)
    p.set_defaults(fn=cmd_request, request=wire.QueryLatestBlock)

    p = sub.add_parser("ledger")
    _add_hub_flags(p)
    p.set_defaults(fn=cmd_request, request=wire.QueryLedger)

    p = sub.add_parser("insert-block")
    _add_hub_flags(p)
    p.add_argument("--host-key", required=True)
    p.add_argument("--simchain", type=host_port, required=True, help="host:port")
    p.add_argument("--height", type=int, help="insert up to this height (default: simchain tip)")
    p.set_defaults(fn=cmd_insert_block)

    p = sub.add_parser("build-settlement")
    _add_hub_flags(p)
    p.set_defaults(fn=cmd_request, request=wire.GetSettlement)

    p = sub.add_parser("broadcast")
    _add_hub_flags(p)
    p.add_argument("--simchain", type=host_port, required=True, help="host:port")
    p.set_defaults(fn=cmd_broadcast)

    p = sub.add_parser("terminate")
    _add_hub_flags(p)
    p.add_argument("--host-key", required=True)
    p.set_defaults(fn=cmd_terminate)

    p = sub.add_parser("snapshot")
    _add_hub_flags(p)
    p.set_defaults(fn=cmd_request, request=wire.Snapshot)

    # SUPPRESS: a flag after the subcommand sets json, its absence leaves the top-level value
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)

    args = parser.parse_args(argv)
    return _run(args, args.fn)


# ----------------------------------------------------------------------
# daemons

def _serve(args, server, status: dict) -> None:
    """Print the ready line, then run the server's loop in this thread until
    SIGTERM or SIGINT. The handler only sets the loop's stop flag and wakes it.
    A Python handler runs only once the loop's select returns, and a signal
    that lands just before the loop blocks in select does not interrupt it;
    so the signal itself also wakes the loop, through the wakeup fd.

    The objects made so far (modules, the server, a loaded hub) live as long
    as the process, so after one collection clears start-up's garbage they
    are frozen out of the garbage collector before the ready line: no later
    collection scans them, while serving or at exit."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: server.shutdown())
    previous = signal.set_wakeup_fd(server.wake_fd)
    gc.collect()
    gc.freeze()
    _emit(args, status)
    sys.stdout.flush()
    try:
        server.serve_forever()
    finally:
        signal.set_wakeup_fd(previous)


def hubd_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="routee-hubd")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--set", action="append", default=[], help="KEY=VALUE setting, repeatable")
    return _run(parser.parse_args(argv), _hubd)


def _hubd(args) -> int:
    daemon = HubDaemon(DaemonConfig(dict(item.partition("=")[::2] for item in args.set)))
    _serve(args, daemon.server, {"listening": daemon.port, "initialized": int(daemon.hub.chain is not None)})
    daemon.stop()
    return 0


def simchain_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="routee-simchain")
    parser.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve")
    p.add_argument("--port", type=u16, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--premine", type=int, default=0)
    p.set_defaults(mode="serve")

    for name in ("mine", "tip", "pay"):
        p = sub.add_parser(name)
        p.add_argument("--addr", type=host_port, required=True, help="host:port of a running server")
        if name == "mine":
            p.add_argument("--count", type=u16, default=1)
        if name == "pay":
            p.add_argument("--to", type=hex_address, required=True, help="20-byte address hex")
            p.add_argument("--amount", type=u64, required=True)
            p.add_argument("--fee", type=u64, default=0)
        p.set_defaults(mode=name)

    # SUPPRESS: a flag after the subcommand sets json, its absence leaves the top-level value
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)

    return _run(parser.parse_args(argv), _simchain)


def _simchain(args) -> int:
    from .simchain import SimNode
    from .simchain_server import SimchainClient, SimchainServer

    if args.mode == "serve":
        node = SimNode(ChainParams.regtest(), seed=args.seed)
        node.mine_blocks(args.premine)
        server = SimchainServer(node, ("127.0.0.1", args.port))
        _serve(args, server.server, {"listening": server.port, "tip": node.tip_height})
        server.stop()
        return 0
    with SimchainClient(*args.addr) as client:
        if args.mode == "mine":
            _emit(args, {"tip": client.mine(args.count)})
        elif args.mode == "tip":
            height, tip_hash = client.tip()
            _emit(args, {"height": height, "hash": tip_hash})
        elif args.mode == "pay":
            _emit(args, {"txid": client.pay(args.to, args.amount, args.fee)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
