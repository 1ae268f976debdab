"""Command-line entry points: `routee` (host and user client), `routee-hubd`
(the hub daemon), and `routee-simchain` (the simulated chain server).

Every command supports --json for machine-readable output; the flag may come
before or after the subcommand (`routee --json pay ...` or `routee pay --json ...`).
Protocol errors exit non-zero with a structured {"error": code, "detail": ...}
payload.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from . import wire
from .client import (
    Keys,
    RemoteHub,
    build_add_deposit,
    build_insert_block,
    build_payment,
    build_query_user,
    build_settle,
    build_terminate,
    build_update_boundary,
)
from .crypto import get_scheme
from .daemon import DaemonConfig, HubDaemon
from .errors import RouteeError
from .headers import ChainParams
from .lightclient import choose_boundary, sync_headers
from .simchain import SimClock, SimNode
from .simchain_server import SimchainClient, SimchainServer


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


def _hub(args) -> RemoteHub:
    return RemoteHub(args.host, args.port)


def _scheme_for(args):
    return get_scheme(args.scheme)


def _user_nonce(hub: RemoteHub, scheme, keys: Keys) -> int:
    state = hub.request(build_query_user(scheme, keys, hub.session_id))
    return state["nonce"]


def _simchain_client(args) -> SimchainClient:
    host, _, port = args.simchain.partition(":")
    return SimchainClient(host, int(port))


# ----------------------------------------------------------------------
# user + host client

def cmd_keygen(args) -> int:
    keys = Keys.generate(_scheme_for(args))
    keys.save(args.out)
    _emit(args, {"key_file": args.out, "address": keys.address, "scheme": args.scheme})
    return 0


def cmd_add_user(args) -> int:
    keys = Keys.load(args.key)
    with _hub(args) as hub:
        result = hub.request(wire.AddUser(keys.public, bytes.fromhex(args.settle_address)))
    _emit(args, result)
    return 0


def cmd_add_deposit(args) -> int:
    keys = Keys.load(args.key)
    scheme = get_scheme(keys.scheme_name)
    with _hub(args) as hub:
        nonce = _user_nonce(hub, scheme, keys)
        result = hub.request(build_add_deposit(scheme, keys, nonce))
    _emit(args, result)
    return 0


def _sync_store(args):
    params = ChainParams(args.retarget_interval, args.target_spacing, args.pow_limit_bits)
    peers = []
    for idx, spec in enumerate(args.peer):
        host, _, port = spec.partition(":")
        peers.append((f"peer{idx}:{spec}", SimchainClient(host, int(port))))
    return sync_headers(peers, params, args.batch_size)


def cmd_sync_headers(args) -> int:
    store = _sync_store(args)
    selected = store.selected
    _emit(
        args,
        {
            "peers_ok": len(store.candidates),
            "peers_dropped": len(store.rejected),
            "tip_height": selected.chain.tip_height if selected else None,
            "tip_hash": selected.chain.tip_hash if selected else None,
            "storage_bytes": store.storage_bytes(),
        },
    )
    return 0


def cmd_set_boundary(args) -> int:
    keys = Keys.load(args.key)
    scheme = get_scheme(keys.scheme_name)
    store = _sync_store(args)
    height, block_hash = choose_boundary(store, args.k)
    with _hub(args) as hub:
        nonce = _user_nonce(hub, scheme, keys)
        result = hub.request(build_update_boundary(scheme, keys, nonce, height, block_hash))
    _emit(args, result)
    return 0


def cmd_pay(args) -> int:
    keys = Keys.load(args.key)
    scheme = get_scheme(keys.scheme_name)
    batch = []
    if args.to:
        batch.append(wire.PaymentItem(bytes.fromhex(args.to), args.amount, args.fee))
    for item in args.batch or []:
        addr, amount, fee = item.split(":")
        batch.append(wire.PaymentItem(bytes.fromhex(addr), int(amount), int(fee)))
    with _hub(args) as hub:
        nonce = _user_nonce(hub, scheme, keys)
        result = hub.request(build_payment(scheme, keys, nonce, batch))
    _emit(args, result)
    return 0


def cmd_settle(args) -> int:
    keys = Keys.load(args.key)
    scheme = get_scheme(keys.scheme_name)
    with _hub(args) as hub:
        nonce = _user_nonce(hub, scheme, keys)
        result = hub.request(build_settle(scheme, keys, nonce, args.amount, args.fee))
    _emit(args, result)
    return 0


def cmd_request(args) -> int:
    """Send the subcommand's request, which has no fields, and print the reply."""
    with _hub(args) as hub:
        result = hub.request(args.request())
    _emit(args, result)
    return 0


def cmd_balance(args) -> int:
    keys = Keys.load(args.key)
    scheme = get_scheme(keys.scheme_name)
    with _hub(args) as hub:
        result = hub.request(build_query_user(scheme, keys, hub.session_id))
    _emit(args, result)
    return 0


def cmd_insert_block(args) -> int:
    host_keys = Keys.load(args.host_key)
    scheme = get_scheme(host_keys.scheme_name)
    sim = _simchain_client(args)
    with _hub(args) as hub:
        inserted = []
        while True:
            state = hub.request(wire.QueryLatestBlock())
            next_height = state["height"] + 1
            tip_height, _ = sim.tip()
            target = tip_height if args.height is None else args.height
            if next_height > target:
                break
            block = sim.get_block(next_height)
            if block is None:
                break
            msg = build_insert_block(scheme, host_keys, block.serialize(), block.header.hash())
            result = hub.request(msg)
            inserted.append(result["height"])
            if args.height is not None and result["height"] >= args.height:
                break
        _emit(args, {"inserted": len(inserted), "tip": inserted[-1] if inserted else state["height"]})
    return 0


def cmd_broadcast(args) -> int:
    from .transactions import Transaction

    sim = _simchain_client(args)
    with _hub(args) as hub:
        plan = hub.request(wire.GetSettlement())
    if not plan.get("present"):
        _emit(args, {"broadcast": 0})
        return 0
    tx = Transaction.deserialize(plan["tx"])
    sim.submit_tx(tx)
    _emit(args, {"broadcast": 1, "txid": tx.txid()})
    return 0


def cmd_terminate(args) -> int:
    host_keys = Keys.load(args.host_key)
    scheme = get_scheme(host_keys.scheme_name)
    with _hub(args) as hub:
        state = hub.request(wire.QueryLatestBlock())
        result = hub.request(build_terminate(scheme, host_keys, state["hash"]))
    _emit(args, result)
    return 0


def _add_hub_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--retarget-interval", type=int, default=100_000)
    p.add_argument("--target-spacing", type=int, default=600)
    p.add_argument("--pow-limit-bits", type=lambda v: int(v, 0), default=0x207FFFFF)


def _add_peer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--peer", action="append", required=True, help="host:port, repeatable")
    p.add_argument("--batch-size", type=int, default=2016)
    _add_chain_flags(p)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="routee")
    parser.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen")
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", default="fast", choices=["fast", "rsa3072", "ecdsa"])
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("add-user")
    _add_hub_flags(p)
    p.add_argument("--key", required=True)
    p.add_argument("--settle-address", required=True, help="20-byte hex")
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
    p.add_argument("--k", type=int, default=6, help="confirmation depth below tip")
    p.set_defaults(fn=cmd_set_boundary)

    p = sub.add_parser("pay")
    _add_hub_flags(p)
    p.add_argument("--key", required=True)
    p.add_argument("--to", help="receiver address hex")
    p.add_argument("--amount", type=int, default=0)
    p.add_argument("--fee", type=int, default=0)
    p.add_argument("--batch", action="append", help="addrhex:amount:fee, repeatable")
    p.set_defaults(fn=cmd_pay)

    p = sub.add_parser("settle")
    _add_hub_flags(p)
    p.add_argument("--key", required=True)
    p.add_argument("--amount", type=int, required=True)
    p.add_argument("--fee", type=int, required=True)
    p.set_defaults(fn=cmd_settle)

    p = sub.add_parser("balance")
    _add_hub_flags(p)
    p.add_argument("--key", required=True)
    p.set_defaults(fn=cmd_balance)

    p = sub.add_parser("init")
    _add_hub_flags(p)
    p.set_defaults(fn=cmd_request, request=wire.InitRun)

    p = sub.add_parser("latest-block")
    _add_hub_flags(p)
    p.set_defaults(fn=cmd_request, request=wire.QueryLatestBlock)

    p = sub.add_parser("ledger")
    _add_hub_flags(p)
    p.set_defaults(fn=cmd_request, request=wire.QueryLedger)

    p = sub.add_parser("insert-block")
    _add_hub_flags(p)
    p.add_argument("--host-key", required=True)
    p.add_argument("--simchain", required=True, help="host:port")
    p.add_argument("--height", type=int, help="insert up to this height (default: simchain tip)")
    p.set_defaults(fn=cmd_insert_block)

    p = sub.add_parser("build-settlement")
    _add_hub_flags(p)
    p.set_defaults(fn=cmd_request, request=wire.GetSettlement)

    p = sub.add_parser("broadcast")
    _add_hub_flags(p)
    p.add_argument("--simchain", required=True)
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
    try:
        return args.fn(args)
    except RouteeError as exc:
        return _fail(args, exc)
    except (ConnectionError, OSError) as exc:
        return _fail(args, RouteeError(str(exc)))


# ----------------------------------------------------------------------
# daemons

def _serve(args, server, status: dict) -> None:
    """Print the ready line, then run the server's loop in this thread until
    SIGTERM or SIGINT. The handler only sets the loop's stop flag and wakes it."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: server.shutdown())
    _emit(args, status)
    sys.stdout.flush()
    server.serve_forever()


def hubd_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="routee-hubd")
    parser.add_argument("--config", help="flat key=value file")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--set", action="append", default=[], help="KEY=VALUE override, repeatable")
    parser.add_argument("--oneshot", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    overrides = {}
    for item in args.set:
        key, _, value = item.partition("=")
        overrides[key] = value
    config = DaemonConfig(args.config, overrides)
    try:
        daemon = HubDaemon(config)
        try:
            daemon.auto_init()
        except BaseException:
            daemon.server.server_close()
            raise
    except RouteeError as exc:
        return _fail(args, exc)
    except (ConnectionError, OSError) as exc:
        return _fail(args, RouteeError(str(exc)))
    status = {"listening": daemon.port, "initialized": int(daemon.hub.chain is not None)}
    if args.oneshot:
        _emit(args, status)
    else:
        _serve(args, daemon.server, status)
    daemon.stop()
    return 0


def simchain_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="routee-simchain")
    parser.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--premine", type=int, default=0)
    p.add_argument("--start-time", type=int, default=1_600_000_000)
    _add_chain_flags(p)
    p.set_defaults(mode="serve")

    for name in ("mine", "tip", "pay"):
        p = sub.add_parser(name)
        p.add_argument("--addr", required=True, help="host:port of a running server")
        if name == "mine":
            p.add_argument("--count", type=int, default=1)
        if name == "pay":
            p.add_argument("--to", required=True, help="20-byte address hex")
            p.add_argument("--amount", type=int, required=True)
            p.add_argument("--fee", type=int, default=0)
        p.set_defaults(mode=name)

    # SUPPRESS: a flag after the subcommand sets json, its absence leaves the top-level value
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)

    args = parser.parse_args(argv)
    try:
        if args.mode == "serve":
            params = ChainParams(args.retarget_interval, args.target_spacing, args.pow_limit_bits)
            node = SimNode(params, seed=args.seed, clock=SimClock(args.start_time))
            node.mine_blocks(args.premine)
            server = SimchainServer(node, ("127.0.0.1", args.port))
            _serve(args, server.server, {"listening": server.port, "tip": node.tip_height})
            server.stop()
            return 0
        host, _, port = args.addr.partition(":")
        client = SimchainClient(host, int(port))
        if args.mode == "mine":
            _emit(args, {"tip": client.mine(args.count)})
        elif args.mode == "tip":
            height, tip_hash = client.tip()
            _emit(args, {"height": height, "hash": tip_hash})
        elif args.mode == "pay":
            txid = client.pay(bytes.fromhex(args.to), args.amount, args.fee)
            _emit(args, {"txid": txid})
        return 0
    except RouteeError as exc:
        return _fail(args, exc)
    except (ConnectionError, OSError) as exc:
        return _fail(args, RouteeError(str(exc)))


if __name__ == "__main__":
    sys.exit(main())
