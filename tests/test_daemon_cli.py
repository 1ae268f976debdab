import argparse
import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from conftest import closed_by_peer, refused_flips

from routee import cli, netio, snapshot, wire
from routee.blocks import Block
from routee.client import (
    PRE_HANDSHAKE_FRAME,
    Keys,
    LocalConnection,
    LocalHubEndpoint,
    RemoteHub,
)
from routee.daemon import DaemonConfig, HubDaemon
from routee.errors import HandshakeFailure, InitFailure, SnapshotError
from routee.headers import ChainParams
from routee.hub import Hub
from routee.simchain import SimNode
from routee.simchain_server import SimchainClient, SimchainServer


@pytest.fixture
def stack(tmp_path):
    """simchain server + hub daemon over real sockets, plus host key files."""
    threads_before = set(threading.enumerate())
    node = SimNode(ChainParams.regtest(), seed=5)
    node.mine_blocks(4)
    sim_server = SimchainServer(node)
    sim_server.start()

    host_key = Keys.generate(cli.get_scheme("fast"))
    host_key_path = tmp_path / "host.key"
    host_key.save(str(host_key_path))

    config = DaemonConfig(overrides={
        "simchain_port": sim_server.port,
        "min_routing_fee": 2,
        "snapshot_path": str(tmp_path / "hub.snap"),
        "host_pubkey_hex": host_key.public.hex(),
    })
    daemon = HubDaemon(config)
    daemon.start()
    sim = SimchainClient("127.0.0.1", sim_server.port)
    try:
        yield {
            "node": node,
            "sim": sim,
            "sim_port": sim_server.port,
            "daemon": daemon,
            "sim_server": sim_server,
            "threads_before": threads_before,
            "host_key_path": str(host_key_path),
            "tmp": tmp_path,
        }
    finally:
        sim.close()
        daemon.stop()
        sim_server.stop()


def run_cli(capsys, argv):
    code = cli.main(["--json"] + argv)
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, (lines[-1] if lines else {}), out.err


def send_remote(remote: RemoteHub, raw: bytes) -> dict:
    """Seal `raw` as a request's plaintext on `remote`'s session; the reply's fields."""
    _, reply = remote.conn.request(wire.FRAME_ENVELOPE, remote.session.seal(raw))
    return wire.decode_response(remote.session.open(reply))


def send_local(local: LocalConnection, raw: bytes) -> dict:
    """`send_remote` through an in-memory front end."""
    frame = wire.pack_frame(wire.FRAME_ENVELOPE, local.session.seal(raw))
    _, reply = wire.unpack_frame(local.send_raw_frame(frame)[-1])
    return wire.decode_response(local.session.open(reply))


def test_daemon_auto_initializes_to_simchain_tip(stack):
    with RemoteHub("127.0.0.1", stack["daemon"].port) as hub:
        state = hub.request(wire.QueryLatestBlock())
        assert state["height"] == stack["node"].tip_height


def test_daemon_started_without_auto_init_never_initializes(capsys, monkeypatch):
    # no request starts init: kinds 13 and 14, once init's status and run,
    # are unknown, and the daemon never calls its block source
    calls = []
    request = SimchainClient._request
    monkeypatch.setattr(SimchainClient, "_request", lambda client, *args: calls.append(args) or request(client, *args))
    daemon = HubDaemon(DaemonConfig(overrides={"simchain_port": 1, "auto_init": 0, "host_pubkey_hex": "00" * 32}))
    daemon.start()
    try:
        port = str(daemon.port)
        code, _, err = run_cli(capsys, ["latest-block", "--port", port])
        assert code == 2 and json.loads(err)["error"] == "not-initialized"
        local = LocalConnection(LocalHubEndpoint(Hub(daemon.config.hub_config())))
        with RemoteHub("127.0.0.1", daemon.port) as first:
            for raw in (b"\x0d", b"\x0e"):
                for send, conn in ((send_local, local), (send_remote, first)):
                    with pytest.raises(wire.RemoteError) as exc:
                        send(conn, raw)
                    assert exc.value.code == "unknown-type"
        with RemoteHub("127.0.0.1", daemon.port) as second:
            assert second.request(wire.GetSettlement()) == {"present": 0}
        assert daemon.hub.chain is None and local.endpoint.hub.chain is None
        assert calls == []
    finally:
        daemon.stop()
    with pytest.raises(SystemExit) as exc:
        cli.main(["init", "--port", "1"])
    assert exc.value.code == 2 and "invalid choice: 'init'" in capsys.readouterr().err


def test_cli_user_flow_over_daemon(stack, capsys, tmp_path):
    port = str(stack["daemon"].port)
    sim = f"127.0.0.1:{stack['sim_port']}"
    alice_path = str(tmp_path / "alice.key")

    code, out, _ = run_cli(capsys, ["keygen", "--out", alice_path])
    assert code == 0
    alice_addr = out["address"]

    code, out, _ = run_cli(capsys, ["add-user", "--port", port, "--key", alice_path,
                                    "--settle-address", "aa" * 20])
    assert code == 0
    assert out["user_address"] == alice_addr

    code, out, _ = run_cli(capsys, ["add-deposit", "--port", port, "--key", alice_path])
    assert code == 0
    manager = out["manager_address"]

    stack["sim"].pay(bytes.fromhex(manager), 100_000)
    stack["sim"].mine(1)
    code, out, _ = run_cli(capsys, ["insert-block", "--port", port,
                                    "--host-key", stack["host_key_path"], "--simchain", sim])
    assert code == 0
    assert out["inserted"] == 1

    code, out, _ = run_cli(capsys, ["balance", "--port", port, "--key", alice_path])
    assert code == 0
    assert out["balance"] == 100_000 - 148  # fee_avg 1 on an empty window

    code, out, _ = run_cli(capsys, ["ledger", "--port", port])
    assert code == 0
    assert out["conservation_ok"] == 1


def test_cli_settle_fee_too_low_is_structured_error(stack, capsys, tmp_path):
    port = str(stack["daemon"].port)
    alice_path = str(tmp_path / "alice2.key")
    run_cli(capsys, ["keygen", "--out", alice_path])
    run_cli(capsys, ["add-user", "--port", port, "--key", alice_path,
                     "--settle-address", "bb" * 20])
    code = cli.main(["--json", "settle", "--port", port, "--key", alice_path,
                     "--amount", "10", "--fee", "33"])  # below 34 * fee_avg
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err.strip())
    assert err["error"] == "fee-too-low"


def test_cli_set_boundary_syncs_headers(stack, capsys, tmp_path):
    port = str(stack["daemon"].port)
    sim = f"127.0.0.1:{stack['sim_port']}"
    bob_path = str(tmp_path / "bob.key")
    run_cli(capsys, ["keygen", "--out", bob_path])
    run_cli(capsys, ["add-user", "--port", port, "--key", bob_path,
                     "--settle-address", "cc" * 20])

    code, out, _ = run_cli(capsys, ["sync-headers", "--peer", sim])
    assert code == 0
    assert out["tip_height"] == stack["node"].tip_height
    assert out["storage_bytes"] == 80 * (stack["node"].tip_height + 1)

    code, out, _ = run_cli(capsys, ["set-boundary", "--port", port, "--key", bob_path,
                                    "--peer", sim, "--k", "1"])
    assert code == 0
    assert out["boundary_block"] == stack["node"].tip_height - 1

    # a depth below 1 is a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["set-boundary", "--port", port, "--key", bob_path, "--peer", sim, "--k", "0"])
    assert exc.value.code == 2
    assert "--k: must be at least 1" in capsys.readouterr().err


TO = "00" * 20


@pytest.mark.parametrize("entry, argv, flag", [
    ("routee", ["pay", "--to", "zz"], "--to"),
    ("routee", ["pay", "--batch", "00:1"], "--batch"),
    ("routee", ["add-user", "--settle-address", "zz"], "--settle-address"),
    ("routee-simchain", ["pay", "--addr", "127.0.0.1:1", "--to", "zz", "--amount", "1"], "--to"),
    # a negative amount or fee cannot be packed into a request
    ("routee", ["pay", "--to", TO, "--amount", "-1", "--fee", "5"], "--amount"),
    ("routee", ["pay", "--to", TO, "--amount", "1", "--fee", "-5"], "--fee"),
    ("routee", ["pay", "--batch", f"{TO}:-1:5"], "--batch"),
    ("routee", ["settle", "--amount", "-1", "--fee", "5"], "--amount"),
    ("routee", ["settle", "--amount", "1", "--fee", "-5"], "--fee"),
    ("routee-simchain", ["pay", "--addr", "127.0.0.1:1", "--to", TO, "--amount", "-1"], "--amount"),
    ("routee-simchain", ["pay", "--addr", "127.0.0.1:1", "--to", TO, "--amount", "1", "--fee", "-1"], "--fee"),
    # a block count is a 2-byte wire field
    ("routee-simchain", ["mine", "--addr", "127.0.0.1:1", "--count", "-1"], "--count"),
    ("routee-simchain", ["mine", "--addr", "127.0.0.1:1", "--count", "70000"], "--count"),
], ids=["pay-to", "pay-batch", "add-user-settle-address", "simchain-pay-to", "pay-negative-amount",
        "pay-negative-fee", "pay-batch-negative-amount", "settle-negative-amount", "settle-negative-fee",
        "simchain-pay-negative-amount", "simchain-pay-negative-fee", "simchain-mine-negative-count",
        "simchain-mine-count-past-65535"])
def test_bad_cli_input_is_a_usage_error(capsys, tmp_path, entry, argv, flag):
    # refused while parsing, before any connection: the ports here are closed
    key_path = str(tmp_path / "user.key")
    Keys.generate(cli.get_scheme("fast")).save(key_path)
    if entry == "routee":
        argv = argv[:1] + ["--port", "1", "--key", key_path] + argv[1:]
    main = cli.main if entry == "routee" else cli.simchain_main
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err


@pytest.mark.parametrize("entry, argv, flag", [
    ("routee", ["sync-headers", "--peer", "127.0.0.1"], "--peer"),
    ("routee", ["broadcast", "--port", "1", "--simchain", "localhost:x"], "--simchain"),
    ("routee", ["insert-block", "--port", "1", "--host-key", "k", "--simchain", "127.0.0.1:99999"], "--simchain"),
    ("routee-simchain", ["tip", "--addr", "127.0.0.1"], "--addr"),
    # a port past 65535 would wrap around or overflow in the socket call
    ("routee", ["latest-block", "--port", "70000"], "--port"),
    ("routee", ["latest-block", "--port", "-1"], "--port"),
    ("routee-simchain", ["serve", "--port", "70000"], "--port"),
], ids=["sync-headers-peer", "broadcast-simchain", "insert-block-simchain", "simchain-tip-addr",
        "latest-block-port", "latest-block-negative-port", "simchain-serve-port"])
def test_bad_host_port_is_a_usage_error(capsys, entry, argv, flag):
    # a port or host:port without a valid port is refused while parsing, before any connection
    main = cli.main if entry == "routee" else cli.simchain_main
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["fast\nzz\n", "", "rsa3072\n00\n00\n", "ecdsa\n00\n00\n"],
                         ids=["bad-hex", "empty", "rsa-not-a-key", "ecdsa-not-a-key"])
def test_malformed_key_file_is_a_structured_error(capsys, tmp_path, text):
    key_path = tmp_path / "user.key"
    key_path.write_text(text)
    # the key file is read before any connection: nothing listens on port 1
    code = cli.main(["--json", "balance", "--port", "1", "--key", str(key_path)])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "auth-failure" and str(key_path) in err["detail"]


@pytest.fixture
def ready_only(monkeypatch):
    """`routee-hubd` prints its ready line and stops instead of serving, so a
    start-up that no longer fails cannot hang the test."""
    monkeypatch.setattr(cli, "_serve", lambda args, server, status: cli._emit(args, status))


@pytest.mark.parametrize("text", ["not hex\n", "00" * 16], ids=["hub-not-hex", "hub-short"])
def test_hubd_refuses_a_malformed_key_file(capsys, tmp_path, ready_only, text):
    key_path = tmp_path / "bad.key"
    key_path.write_text(text)
    code = cli.hubd_main(["--json", "--set", "simchain_port=1", "--set", f"hub_key_path={key_path}"])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "auth-failure" and str(key_path) in err["detail"]


def test_hubd_refuses_a_missing_key_file(capsys, tmp_path, ready_only):
    # a named key file that does not exist is refused, not replaced by a fresh key
    key_path = tmp_path / "missing.key"
    code = cli.hubd_main(["--json", "--set", "auto_init=0", "--set", f"hub_key_path={key_path}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    err = json.loads(err)
    assert err["error"] == "auth-failure" and str(key_path) in err["detail"]


def test_low_order_handshake_key_closes_the_connection_quietly(stack, capfd):
    port = stack["daemon"].port
    capfd.readouterr()
    for low_order in (bytes(32), b"\x01" + bytes(31)):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as peer:
            peer.sendall(wire.pack_frame(wire.FRAME_HANDSHAKE_INIT, wire.encode(wire.HandshakeInit(low_order))))
            assert closed_by_peer(peer)
    with RemoteHub("127.0.0.1", port) as hub:
        assert hub.request(wire.QueryLatestBlock())["height"] == stack["node"].tip_height
    assert capfd.readouterr().err == ""


def test_daemon_snapshot_restart_restores_ledger(stack, capsys, tmp_path):
    port = str(stack["daemon"].port)
    alice_path = str(tmp_path / "alice3.key")
    run_cli(capsys, ["keygen", "--out", alice_path])
    run_cli(capsys, ["add-user", "--port", port, "--key", alice_path,
                     "--settle-address", "dd" * 20])
    code, out, _ = run_cli(capsys, ["snapshot", "--port", port])
    assert code == 0
    assert out["bytes_written"] > 0

    before = stack["daemon"].hub.query_ledger()
    stack["daemon"].stop()  # also writes the shutdown snapshot

    daemon2 = HubDaemon(DaemonConfig(overrides={
        "simchain_port": stack["sim_port"],
        "min_routing_fee": 2,
        "snapshot_path": str(stack["tmp"] / "hub.snap"),
        "host_pubkey_hex": Keys.load(stack["host_key_path"]).public.hex(),
    }))
    daemon2.start()
    try:
        assert daemon2.hub.query_ledger() == before
        assert daemon2.hub.users == stack["daemon"].hub.users
    finally:
        daemon2.stop()


def test_config_precedence_env_then_flags(monkeypatch):
    # the environment sets nothing: defaults, then the overrides alone
    monkeypatch.setenv("ROUTEE_MIN_ROUTING_FEE", "9")
    monkeypatch.setenv("ROUTEE_HOME", "/tmp")
    config = DaemonConfig()
    assert config["min_routing_fee"] == 1 and config["snapshot_path"] == ""
    config = DaemonConfig(overrides={"min_routing_fee": 11, "snapshot_path": "hub.snap"})
    assert config["min_routing_fee"] == 11
    assert config["snapshot_path"] == "hub.snap"
    assert config["auto_init"] == 1


@pytest.mark.parametrize("argv, fee", [([], 1), (["--set", "min_routing_fee=3"], 3)], ids=["default", "set"])
def test_hubd_ignores_routee_environment_variables(capsys, monkeypatch, ready_only, argv, fee):
    monkeypatch.setenv("ROUTEE_HOME", "/tmp")
    monkeypatch.setenv("ROUTEE_MIN_ROUTING_FEE", "9")
    daemons = []

    def build(config):
        daemons.append(HubDaemon(config))
        return daemons[-1]

    monkeypatch.setattr(cli, "HubDaemon", build)
    code = cli.hubd_main(["--json", "--set", "auto_init=0"] + argv)
    assert code == 0
    assert json.loads(capsys.readouterr().out)["initialized"] == 0
    assert daemons[0].hub.config.min_routing_fee == fee


@pytest.mark.parametrize("argv", [["--config", "hub.conf"], ["--oneshot"]], ids=["config", "oneshot"])
def test_hubd_has_no_config_file_or_oneshot_flag(capsys, ready_only, argv):
    with pytest.raises(SystemExit) as exc:
        cli.hubd_main(["--json", "--set", "simchain_port=1"] + argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("min_routing_fe", "5"),  # a typo of a key
    ("min_routing_fee", "abc"),
    ("host_pubkey_hex", "zz"),
    ("crypto_mode", "fulll"),
], ids=["unknown-key-set", "fee-not-a-number-set", "pubkey-not-hex-set", "unknown-crypto-mode-set"])
def test_hubd_refuses_a_bad_setting(capsys, ready_only, key, value):
    # refused before the daemon listens or reaches for its block source
    code = cli.hubd_main(["--json", "--set", f"{key}={value}"])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "bad-config"
    assert err["detail"].startswith(f"unknown key {key!r}" if key == "min_routing_fe" else f"bad {key} {value!r}")


def test_hubd_refuses_a_setting_its_snapshot_holds_otherwise(capsys, tmp_path, ready_only):
    held = {"min_routing_fee": "2", "host_pubkey_hex": "ab" * 32,
            "host_settle_address_hex": "cd" * 20, "crypto_mode": "fast-test"}
    other = {"min_routing_fee": "3", "host_pubkey_hex": "ef" * 32,
             "host_settle_address_hex": "00" * 20, "crypto_mode": "full"}

    def hubd(settings):
        argv = ["--json", "--set", f"snapshot_path={tmp_path / 'hub.snap'}", "--set", "auto_init=0"]
        for key, value in settings.items():
            argv += ["--set", f"{key}={value}"]
        code = cli.hubd_main(argv)
        return code, capsys.readouterr().err

    assert hubd(held) == (0, "")  # writes the snapshot as it stops
    # the same values, or none: a default not given does not count
    assert hubd(held) == (0, "")
    assert hubd({}) == (0, "")
    for key, value in other.items():
        code, err = hubd({**held, key: value})
        assert code == 2
        err = json.loads(err)
        assert err["error"] == "bad-config" and err["detail"].startswith(key)
    loaded = snapshot.load_hub((tmp_path / "hub.snap").read_bytes())
    assert loaded.config.min_routing_fee == 2 and loaded.suite.mode == "fast-test"


def test_daemon_unreachable_block_source_fails_startup(capsys, ready_only):
    # nothing listens on port 1; init aborts with a diagnostic before the
    # daemon listens, so its port is free again at once
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        listen_port = probe.getsockname()[1]
    code = cli.hubd_main(["--json", "--set", "simchain_port=1",
                          "--set", f"listen_port={listen_port}", "--set", "host_pubkey_hex=" + "00" * 32])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err.strip())
    with socket.socket() as again:
        again.bind(("127.0.0.1", listen_port))


def test_an_empty_block_body_from_the_block_source_is_an_init_failure(capsys, monkeypatch, ready_only):
    # the source serves the tip's header with no transactions: init refuses
    # it by InsertBlock's rule, and routee-hubd exits 2 with that code
    node = SimNode(ChainParams.regtest(), seed=5)
    node.mine_blocks(4)
    get_block = SimchainClient.get_block

    def empty_tip(client, height):
        block = get_block(client, height)
        return Block(block.header, []) if height == node.tip_height else block

    monkeypatch.setattr(SimchainClient, "get_block", empty_tip)
    sim_server = SimchainServer(node)
    sim_server.start()
    settings = {"simchain_port": sim_server.port, "host_pubkey_hex": "00" * 32}
    try:
        with pytest.raises(InitFailure, match=f"height {node.tip_height}: empty block"):
            HubDaemon(DaemonConfig(overrides=settings))
        argv = ["--json"] + [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]
        code = cli.hubd_main(argv)
    finally:
        sim_server.stop()
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == "init-failure"


def test_simchain_cli_verbs(stack, capsys):
    addr = f"127.0.0.1:{stack['sim_port']}"
    code = cli.simchain_main(["--json", "tip", "--addr", addr])
    out = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert out["height"] == stack["node"].tip_height

    code = cli.simchain_main(["--json", "mine", "--addr", addr, "--count", "2"])
    out = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert out["tip"] == stack["node"].tip_height

    code = cli.simchain_main(["--json", "pay", "--addr", addr, "--to", "ee" * 20,
                              "--amount", "500"])
    out = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert len(out["txid"]) == 64


def _place_json(where, argv):
    """argv with --json before the subcommand, after it, or left out."""
    if where == "before":
        return ["--json"] + argv
    if where == "after":
        return argv[:1] + ["--json"] + argv[1:]
    return argv


def _parse(where, stream):
    """One JSON object when --json was given, else `key: value` lines as strings."""
    if where != "absent":
        lines = stream.splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])
    return dict(line.split(": ", 1) for line in stream.splitlines())


@pytest.mark.parametrize("where", ["before", "after", "absent"])
def test_json_flag_before_or_after_subcommand(stack, capsys, tmp_path, where):
    key_path = str(tmp_path / "pos.key")
    code = cli.main(_place_json(where, ["keygen", "--out", key_path]))
    out = _parse(where, capsys.readouterr().out)
    assert code == 0
    assert out["key_file"] == key_path
    assert out["address"] == Keys.load(key_path).address.hex()

    addr = f"127.0.0.1:{stack['sim_port']}"
    code = cli.simchain_main(_place_json(where, ["tip", "--addr", addr]))
    out = _parse(where, capsys.readouterr().out)
    assert code == 0
    assert str(out["height"]) == str(stack["node"].tip_height)

    # the key was never registered, so the hub refuses it with a structured error
    code = cli.main(_place_json(where, ["balance", "--port", str(stack["daemon"].port),
                                        "--key", key_path]))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if where == "absent":
        assert captured.err.startswith("error: unknown-user")
    else:
        assert _parse(where, captured.err)["error"] == "unknown-user"


@pytest.mark.parametrize("scheme", ["fast", "rsa3072"])
def test_keygen_writes_a_key_file_that_signs(capsys, tmp_path, scheme):
    key_path = str(tmp_path / f"{scheme}.key")
    code, out, _ = run_cli(capsys, ["keygen", "--out", key_path, "--scheme", scheme])
    assert code == 0
    keys = Keys.load(key_path)
    assert out["address"] == keys.address.hex()
    signer = cli.get_scheme(scheme)
    assert signer.verify(keys.public, b"m", signer.sign(keys.secret, b"m"))
    msg = keys.sign(wire.AddDeposit(keys.address, 3))
    assert signer.verify(keys.public, msg.signing_digest(), msg.signature)
    if scheme == "rsa3072":
        assert keys.secret.hex() not in repr(keys) and repr(keys.secret) not in repr(keys)


def test_keygen_refuses_an_ecdsa_key_that_no_hub_verifies(capsys, tmp_path):
    # a hub verifies requests with its crypto mode's auth scheme: fast or rsa3072
    key_path = tmp_path / "ecdsa.key"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--json", "keygen", "--out", str(key_path), "--scheme", "ecdsa"])
    assert exc.value.code == 2
    assert "invalid choice: 'ecdsa'" in capsys.readouterr().err
    assert not key_path.exists()


def test_hub_info_without_a_static_key_is_a_malformed_frame(capsys):
    server = netio.FrameServer(
        ("127.0.0.1", 0), lambda frame_type, payload, ctx: (frame_type, wire.encode_ok({"measurement": bytes(32)})))
    server.start_background()
    try:
        code = cli.main(["--json", "latest-block", "--port", str(server.port)])
    finally:
        server.shutdown()
        server.server_close()
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "malformed-frame" and "static_public" in err["detail"]


def test_cli_round_trip_with_an_rsa_key_file(capsys, tmp_path):
    # full crypto: the hub verifies the key file's RSA-3072 signatures
    node = SimNode(ChainParams.regtest(), scheme=cli.get_scheme("ecdsa"), seed=5)
    node.mine_blocks(4)
    sim_server = SimchainServer(node)
    sim_server.start()
    daemon = HubDaemon(DaemonConfig(overrides={
        "simchain_port": sim_server.port,
        "crypto_mode": "full",
        "host_pubkey_hex": "00" * 32,
    }))
    daemon.start()
    try:
        port = str(daemon.port)
        key_path = str(tmp_path / "alice.key")
        assert run_cli(capsys, ["keygen", "--out", key_path, "--scheme", "rsa3072"])[0] == 0
        code, _, _ = run_cli(capsys, ["add-user", "--port", port, "--key", key_path, "--settle-address", TO])
        assert code == 0
        code, before, _ = run_cli(capsys, ["balance", "--port", port, "--key", key_path])
        assert code == 0
        code, out, _ = run_cli(capsys, ["add-deposit", "--port", port, "--key", key_path])
        assert code == 0 and len(out["manager_address"]) == 40
        code, after, _ = run_cli(capsys, ["balance", "--port", port, "--key", key_path])
        assert code == 0
        assert after["nonce"] == before["nonce"] + 1
    finally:
        daemon.stop()
        sim_server.stop()


def test_readme_flow_confirms_a_full_crypto_plan(capsys, tmp_path):
    # README's flow against a crypto_mode=full daemon and a block source built
    # as `routee-simchain serve` builds it, with its fast wallet: the node
    # verifies the hub's ECDSA unlocks, so the broadcast plan confirms
    node = SimNode(ChainParams.regtest(), seed=1)
    node.mine_blocks(8)
    sim_server = SimchainServer(node)
    sim_server.start()
    sim = f"127.0.0.1:{sim_server.port}"
    keys = {name: str(tmp_path / f"{name}.key") for name in ("host", "alice", "bob")}
    for path in keys.values():
        assert run_cli(capsys, ["keygen", "--out", path, "--scheme", "rsa3072"])[0] == 0
    daemon = HubDaemon(DaemonConfig(overrides={
        "simchain_port": sim_server.port,
        "crypto_mode": "full",
        "host_pubkey_hex": Keys.load(keys["host"]).public.hex(),
        "min_routing_fee": 2,
    }))
    daemon.start()

    def hub(command, *argv):
        code, out, err = run_cli(capsys, [command, "--port", str(daemon.port), *argv])
        assert code == 0, err
        return out

    def chain(command, *argv):
        assert cli.simchain_main(["--json", command, "--addr", sim, *argv]) == 0, capsys.readouterr().err
        return json.loads(capsys.readouterr().out)

    insert = ("--host-key", keys["host"], "--simchain", sim)
    try:
        hub("add-user", "--key", keys["alice"], "--settle-address", "aa" * 20)
        hub("add-user", "--key", keys["bob"], "--settle-address", "bb" * 20)
        manager = hub("add-deposit", "--key", keys["alice"])["manager_address"]
        chain("pay", "--to", manager, "--amount", "100000")
        chain("mine", "--count", "2")
        assert hub("insert-block", *insert)["inserted"] == 2
        hub("set-boundary", "--key", keys["bob"], "--peer", sim, "--k", "1")
        bob = Keys.load(keys["bob"]).address.hex()
        assert hub("pay", "--key", keys["alice"], "--to", bob, "--amount", "30", "--fee", "2")["accepted"] == 1
        hub("settle", "--key", keys["alice"], "--amount", "5000", "--fee", "800")
        deadline = time.monotonic() + 30
        while not hub("build-settlement")["present"]:  # the daemon signs between frames
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert hub("broadcast", "--simchain", sim)["broadcast"] == 1
        chain("mine")
        assert hub("insert-block", *insert)["inserted"] == 1
        ledger = hub("ledger")
        assert ledger["plans_confirmed"] == 1 and ledger["conservation_ok"] == 1
        # with the plan confirmed there is nothing to broadcast; the host
        # then terminates, once
        assert hub("broadcast", "--simchain", sim) == {"broadcast": 0}
        assert hub("terminate", "--host-key", keys["host"])["enqueued"] >= 1
        assert hub("ledger")["terminating"] == 1
        assert hub("terminate", "--host-key", keys["host"])["enqueued"] == 0
    finally:
        daemon.stop()
        sim_server.stop()


def test_closed_connections_leave_no_sessions(stack):
    daemon = stack["daemon"]
    for _ in range(20):
        with RemoteHub("127.0.0.1", daemon.port) as hub:
            hub.request(wire.QueryLatestBlock())
    # the loop drops each session once it reads the connection's close
    deadline = time.monotonic() + 10
    while daemon.endpoint.sessions and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(daemon.endpoint.sessions) == 0


def test_replayed_envelope_ends_its_connection_and_session(stack, capfd):
    daemon = stack["daemon"]
    capfd.readouterr()
    with RemoteHub("127.0.0.1", daemon.port) as remote:
        envelope = remote.session.seal(wire.encode_request(wire.QueryLatestBlock()))
        assert remote.conn.request(wire.FRAME_ENVELOPE, envelope)[0] == wire.FRAME_ENVELOPE
        remote.conn.send(wire.FRAME_ENVELOPE, envelope)
        assert closed_by_peer(remote.conn.sock)
    assert daemon.endpoint.sessions == {}
    assert capfd.readouterr().err == ""


def test_remote_hub_checks_the_published_measurement(stack, capsys):
    # the hub's own report of its measurement is no evidence for it
    daemon = stack["daemon"]
    daemon.endpoint.measurement = b"\xaa" * 32
    with pytest.raises(HandshakeFailure):
        RemoteHub("127.0.0.1", daemon.port)
    code, _, err = run_cli(capsys, ["latest-block", "--port", str(daemon.port)])
    assert code == 2 and json.loads(err)["error"] == "handshake-failure"


def test_a_flipped_byte_in_a_signed_request_is_refused_by_the_daemon(stack):
    alice = Keys.generate(cli.get_scheme("fast"))
    with RemoteHub("127.0.0.1", stack["daemon"].port) as remote:
        remote.request(wire.AddUser(alice.public, alice.address))
        deposit = alice.sign(wire.AddDeposit(alice.address, 0))
        # the nonce and the signature; the signature's length no longer decodes
        assert refused_flips(lambda raw: send_remote(remote, raw), deposit) == 8 + len(deposit.signature)
        assert "manager_address" in send_remote(remote, wire.encode_request(deposit))


def _parity_script(host, alice, bob, block, tip_hash, session_id):
    """Every request kind, as plaintext, then a malformed body and an unknown kind."""
    requests = [
        wire.AddUser(alice.public, alice.address),
        wire.AddUser(bob.public, bob.address),
        alice.sign(wire.AddDeposit(alice.address, 0)),
        alice.sign(wire.UpdateBoundary(alice.address, 1, 4, tip_hash)),
        alice.sign(wire.Payment(alice.address, 2, [wire.PaymentItem(bob.address, 10, 2)])),
        alice.sign(wire.Settle(alice.address, 3, 1_000, 40)),
        wire.QueryLatestBlock(),
        alice.sign(wire.QueryUser(alice.address), session_id),
        wire.QueryLedger(),
        host.sign(wire.InsertBlock(block.serialize()), block.header.hash()),
        wire.GetSettlement(),
        host.sign(wire.Terminate(block.header.hash())),
        wire.Snapshot(),
    ]
    assert len({req.kind for req in requests}) == 12
    malformed = wire.encode_request(wire.QueryLedger()) + b"\x00"
    return [wire.encode_request(req) for req in requests] + [malformed, b"\xee"]


def test_in_process_and_daemon_front_ends_agree(stack):
    """The same script through LocalConnection and through RemoteHub against
    the daemon: equal status and error code per request, equal keys on ok."""
    node, daemon = stack["node"], stack["daemon"]
    scheme = cli.get_scheme("fast")
    host = Keys.load(stack["host_key_path"])
    alice, bob = Keys.generate(scheme), Keys.generate(scheme)
    tip_hash = node.chain.hash_at(4)

    hub = Hub(daemon.config.hub_config())
    blocks = [node.get_block(h) for h in range(node.tip_height + 1)]
    hub.initialize(blocks[0].header, 0, [b.header for b in blocks[1:]], blocks)
    block = node.mine_block()  # both hubs sit at the same tip below it

    def outcome(send, raw):
        try:
            return "ok", sorted(send(raw))
        except wire.RemoteError as exc:
            return "err", exc.code

    local = LocalConnection(LocalHubEndpoint(hub))
    with RemoteHub("127.0.0.1", daemon.port) as remote:
        script = _parity_script(host, alice, bob, block, tip_hash, local.session.session_id)
        got_local = [outcome(lambda raw: send_local(local, raw), raw) for raw in script]
        script = _parity_script(host, alice, bob, block, tip_hash, remote.session_id)
        got_remote = [outcome(lambda raw: send_remote(remote, raw), raw) for raw in script]

    assert got_local == got_remote
    assert got_local[-2:] == [("err", "malformed-frame"), ("err", "unknown-type")]
    assert got_local[12] == ("ok", ["bytes_written"])  # Snapshot
    assert sum(status == "ok" for status, _ in got_local) >= 10


def test_stopped_servers_leave_no_threads(stack):
    with RemoteHub("127.0.0.1", stack["daemon"].port) as hub:
        hub.request(wire.QueryLatestBlock())
    stack["sim"].tip()
    stack["daemon"].stop()
    stack["sim_server"].stop()
    assert set(threading.enumerate()) <= stack["threads_before"]


def test_every_acknowledged_request_is_in_the_stop_snapshot(stack):
    daemon = stack["daemon"]
    scheme = cli.get_scheme("fast")
    acked, stopped = [], []

    def register_until_cut_off():
        try:
            with RemoteHub("127.0.0.1", daemon.port) as hub:
                while not stopped:
                    keys = Keys.generate(scheme)
                    acked.append(hub.request(wire.AddUser(keys.public, keys.address))["user_address"])
        except (ConnectionError, OSError):
            pass  # the daemon closed the connection as it stopped

    client = threading.Thread(target=register_until_cut_off)
    client.start()
    deadline = time.monotonic() + 10
    while len(acked) < 20 and time.monotonic() < deadline:
        time.sleep(0.01)
    daemon.stop()
    time.sleep(0.1)  # a request sent after stop() must find its connection closed
    stopped.append(True)
    client.join(timeout=10)
    assert not client.is_alive()
    users = snapshot.load_hub((stack["tmp"] / "hub.snap").read_bytes()).users
    assert len(acked) >= 20
    assert set(acked) <= set(users)


def test_a_fault_mid_payment_stops_the_daemon_and_keeps_the_last_snapshot(stack, monkeypatch):
    daemon, sim = stack["daemon"], stack["sim"]
    snap = stack["tmp"] / "hub.snap"
    host = Keys.load(stack["host_key_path"])
    alice = Keys.generate(cli.get_scheme("fast"))
    with RemoteHub("127.0.0.1", daemon.port) as hub:
        hub.request(wire.AddUser(alice.public, bytes(20)))
        manager = hub.request(alice.sign(wire.AddDeposit(alice.address, 0)))["manager_address"]
        sim.pay(manager, 50_000)
        block = sim.get_block(sim.mine(1))
        assert hub.request(host.sign(wire.InsertBlock(block.serialize()), block.header.hash()))["credited"] == 1
        hub.request(wire.Snapshot())
    last = snap.read_bytes()
    balance = daemon.hub.users[alice.address].balance

    def fault_after_the_debit(hub, msg):
        hub.users[msg.sender_address].balance -= 1  # the payment's first table change
        raise RuntimeError("injected fault")

    faults = []
    monkeypatch.setattr(threading, "excepthook", faults.append)
    monkeypatch.setattr(Hub, "multi_hop_payment", fault_after_the_debit)
    payment = alice.sign(wire.Payment(alice.address, 1, [wire.PaymentItem(alice.address, 1, 2)]))
    with RemoteHub("127.0.0.1", daemon.port) as hub, pytest.raises(OSError):
        hub.request(payment)  # the connection closes unanswered
    daemon.server.thread.join(5)
    assert not daemon.server.thread.is_alive() and daemon.server.failed
    assert [str(args.exc_value) for args in faults] == ["injected fault"]
    assert not daemon.hub.conservation()["ok"]  # what a stop snapshot would have held
    daemon.stop()
    assert snap.read_bytes() == last
    restarted = HubDaemon(daemon.config)
    restarted.server.server_close()
    assert restarted.hub.conservation()["ok"]
    assert restarted.hub.users[alice.address].balance == balance


def test_a_fault_ends_hubd_non_zero_without_a_snapshot(tmp_path):
    # fail-stop holds for reads too: a fault in any request ends the process
    snap = tmp_path / "hub.snap"
    prelude = ("from routee.hub import Hub\n"
               "def fault(hub): raise RuntimeError('injected fault')\n"
               "Hub.query_latest_block = fault")

    def query(ready):
        with RemoteHub("127.0.0.1", ready["listening"]) as hub, pytest.raises(OSError):
            hub.request(wire.QueryLatestBlock())

    argv = ["--set", "auto_init=0", "--set", "host_pubkey_hex=" + "00" * 32, "--set", f"snapshot_path={snap}"]
    assert _stop_right_after_ready("hubd_main", argv, tmp_path / "hubd.log", query, prelude) == 1
    assert "RuntimeError: injected fault" in (tmp_path / "hubd.log").read_text()
    assert not snap.exists()


def test_a_snapshot_the_system_refuses_is_a_snapshot_error(tmp_path):
    settings = {"auto_init": 0, "host_pubkey_hex": "00" * 32, "snapshot_path": tmp_path / "missing" / "hub.snap"}
    daemon = HubDaemon(DaemonConfig(settings))
    daemon.start()
    try:
        with RemoteHub("127.0.0.1", daemon.port) as hub:
            with pytest.raises(wire.RemoteError) as exc:
                hub.request(wire.Snapshot())
            assert exc.value.code == "snapshot-error"
            assert hub.request(wire.GetSettlement()) == {"present": 0}  # still served
    finally:
        with pytest.raises(SnapshotError):
            daemon.stop()
    # the shutdown snapshot too: routee-hubd exits 2 with a structured error
    argv = [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]
    assert _stop_right_after_ready("hubd_main", argv, tmp_path / "hubd.log") == 2
    assert json.loads((tmp_path / "hubd.log").read_text())["error"] == "snapshot-error"


def test_oversized_prefix_before_the_handshake_is_cut_off(stack):
    port = stack["daemon"].port
    assert PRE_HANDSHAKE_FRAME == 33
    with socket.create_connection(("127.0.0.1", port), timeout=5) as peer:
        peer.sendall((64 * 1024 * 1024).to_bytes(4, "big"))  # and never the body
        assert closed_by_peer(peer)
    with socket.create_connection(("127.0.0.1", port), timeout=5) as peer:
        peer.sendall((PRE_HANDSHAKE_FRAME + 1).to_bytes(4, "big"))
        assert closed_by_peer(peer)
    # an envelope needs the session of its own connection's handshake
    with RemoteHub("127.0.0.1", port) as first, socket.create_connection(("127.0.0.1", port)) as peer:
        peer.sendall(wire.pack_frame(wire.FRAME_ENVELOPE, first.session_id + bytes(24)))
        assert closed_by_peer(peer)
        assert first.request(wire.QueryLatestBlock())["height"] == stack["node"].tip_height
    with RemoteHub("127.0.0.1", port) as second:
        assert second.request(wire.QueryLatestBlock())["height"] == stack["node"].tip_height


def test_idle_connection_is_closed_and_its_session_dropped(monkeypatch):
    monkeypatch.setattr(netio, "IDLE_TIMEOUT_S", 0.5)
    daemon = HubDaemon(DaemonConfig(overrides={"auto_init": 0, "host_pubkey_hex": "00" * 32}))
    daemon.start()
    try:
        with RemoteHub("127.0.0.1", daemon.port) as idle, RemoteHub("127.0.0.1", daemon.port) as busy:
            assert len(daemon.endpoint.sessions) == 2
            start = time.monotonic()
            while time.monotonic() - start < 1.25:  # 2.5 idle timeouts
                assert busy.request(wire.GetSettlement()) == {"present": 0}
                time.sleep(0.05)
            assert closed_by_peer(idle.conn.sock)
            assert list(daemon.endpoint.sessions) == [busy.session_id]
    finally:
        daemon.stop()


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _stop_right_after_ready(entry: str, argv: list[str], log_path, stop=None, prelude: str = "") -> int:
    """Run `prelude`, then `routee.cli.<entry>`, in a new process. As soon as
    it prints its ready line, call `stop(ready_line)`, or by default send it
    SIGTERM, and return its exit code; every wait is bounded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = f"import sys; from routee.cli import {entry}\n{prelude}\nsys.exit({entry}())"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, "-c", code, "--json", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=log)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready, log_path.read_text()
        line = json.loads(proc.stdout.readline())
        assert "listening" in line, log_path.read_text()
        if stop is None:
            proc.send_signal(signal.SIGTERM)
        else:
            stop(line)
        return proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_sigterm_stops_hubd_with_its_snapshot(tmp_path):
    for i in range(20):
        snap = tmp_path / f"hub-{i}.snap"
        argv = ["--set", "auto_init=0", "--set", "host_pubkey_hex=" + "00" * 32,
                "--set", f"snapshot_path={snap}"]
        assert _stop_right_after_ready("hubd_main", argv, tmp_path / f"hubd-{i}.log") == 0, i
        assert snap.stat().st_size > 0


def test_the_daemon_imports_only_what_it_runs():
    # a restart compiles and runs every module it imports: none that only
    # init, the wallet commands, the scenarios or a key's parse need
    unwanted = ["dataclasses", "inspect", "cryptography.hazmat.primitives.serialization",
                "routee.lightclient", "routee.simchain", "routee.simchain_server",
                "routee.scenarios", "routee.relay"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = "import sys, routee.cli; print(*[name for name in sys.argv[1:] if name in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code, *unwanted], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def test_sigterm_that_misses_the_select_still_stops_the_loop():
    # a SIGTERM that lands after the interpreter's last signal check but
    # before the loop blocks in select does not interrupt that select; one
    # delivered to another thread while this one blocks it never does
    server = netio.FrameServer(("127.0.0.1", 0), lambda *args: None)
    handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
    stopped = threading.Event()

    def send_sigterm():
        time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGTERM)
        if not stopped.wait(5):  # else only the loop's next event runs the handler
            socket.create_connection(("127.0.0.1", server.port)).close()

    sender = threading.Thread(target=send_sigterm)
    sender.start()  # before the mask changes, so this thread takes the signal
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    start = time.monotonic()
    try:
        cli._serve(argparse.Namespace(json=True), server, {"listening": server.port})
        elapsed = time.monotonic() - start
    finally:
        gc.unfreeze()  # `_serve` froze this test process's objects
        stopped.set()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        sender.join(10)
        server.server_close()
    assert elapsed < 2


def test_sigterm_stops_simchain_serve(tmp_path):
    for i in range(5):
        assert _stop_right_after_ready("simchain_main", ["serve"], tmp_path / f"sim-{i}.log") == 0, i
