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
from conftest import closed_by_peer

from routee import cli, netio, snapshot, wire
from routee.client import (
    PRE_HANDSHAKE_FRAME,
    Keys,
    LocalConnection,
    LocalHubEndpoint,
    RemoteHub,
    build_add_deposit,
    build_insert_block,
    build_payment,
    build_query_user,
    build_settle,
    build_terminate,
    build_update_boundary,
)
from routee.daemon import DaemonConfig, HubDaemon
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
    try:
        yield {
            "node": node,
            "sim": SimchainClient("127.0.0.1", sim_server.port),
            "sim_port": sim_server.port,
            "daemon": daemon,
            "sim_server": sim_server,
            "threads_before": threads_before,
            "host_key_path": str(host_key_path),
            "tmp": tmp_path,
        }
    finally:
        daemon.stop()
        sim_server.stop()


def run_cli(capsys, argv):
    code = cli.main(["--json"] + argv)
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, (lines[-1] if lines else {}), out.err


def test_daemon_auto_initializes_to_simchain_tip(stack):
    with RemoteHub("127.0.0.1", stack["daemon"].port) as hub:
        state = hub.request(wire.QueryLatestBlock())
        assert state["height"] == stack["node"].tip_height
        status = hub.request(wire.InitStatus())
        assert status["initialized"] == 1


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


def test_config_precedence_env_then_flags(tmp_path, monkeypatch):
    cfg = tmp_path / "hub.conf"
    cfg.write_text("min_routing_fee=7\nstart_height=99\n")
    config = DaemonConfig(str(cfg))
    assert config.get_int("min_routing_fee") == 7
    monkeypatch.setenv("ROUTEE_MIN_ROUTING_FEE", "9")
    config = DaemonConfig(str(cfg))
    assert config.get_int("min_routing_fee") == 9
    config = DaemonConfig(str(cfg), overrides={"min_routing_fee": 11})
    assert config.get_int("min_routing_fee") == 11
    assert config.get_int("start_height") == 99


def test_daemon_unreachable_block_source_fails_startup(capsys):
    # nothing listens on port 1; auto-init must abort with a diagnostic
    code = cli.hubd_main(["--json", "--oneshot", "--set", "simchain_port=1",
                          "--set", "host_pubkey_hex=" + "00" * 32])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err.strip())


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


def _parity_script(scheme, host, alice, bob, block, tip_hash, session_id):
    """Every request kind, as plaintext, then a malformed body and an unknown kind."""
    requests = [
        wire.AddUser(alice.public, alice.address),
        wire.AddUser(bob.public, bob.address),
        build_add_deposit(scheme, alice, 0),
        build_update_boundary(scheme, alice, 1, 4, tip_hash),
        build_payment(scheme, alice, 2, [wire.PaymentItem(bob.address, 10, 2)]),
        build_settle(scheme, alice, 3, 1_000, 40),
        wire.QueryLatestBlock(),
        build_query_user(scheme, alice, session_id),
        wire.QueryLedger(),
        build_insert_block(scheme, host, block.serialize(), block.header.hash()),
        wire.GetSettlement(),
        build_terminate(scheme, host, block.header.hash()),
        wire.Snapshot(),
        wire.InitStatus(),
        wire.InitRun(),
    ]
    assert len({req.kind for req in requests}) == 14
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

    def send_local(raw):
        frame = wire.pack_frame(wire.FRAME_ENVELOPE, local.session.seal(raw))
        _, reply = wire.unpack_frame(local.send_raw_frame(frame)[-1])
        return wire.decode_response(local.session.open(reply))

    with RemoteHub("127.0.0.1", daemon.port) as remote:

        def send_remote(raw):
            _, reply = remote.conn.request(wire.FRAME_ENVELOPE, remote.session.seal(raw))
            return wire.decode_response(remote.session.open(reply))

        script = _parity_script(scheme, host, alice, bob, block, tip_hash, local.session.session_id)
        got_local = [outcome(send_local, raw) for raw in script]
        script = _parity_script(scheme, host, alice, bob, block, tip_hash, remote.session_id)
        got_remote = [outcome(send_remote, raw) for raw in script]

    assert got_local == got_remote
    assert got_local[-2:] == [("err", "malformed-frame"), ("err", "unknown-type")]
    assert got_local[12] == ("ok", ["bytes_written"])  # Snapshot
    assert got_local[14] == ("ok", ["already", "initialized"])  # InitRun
    assert sum(status == "ok" for status, _ in got_local) >= 12


def test_stopped_servers_leave_no_threads(stack):
    with RemoteHub("127.0.0.1", stack["daemon"].port) as hub:
        hub.request(wire.InitStatus())
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
        assert first.request(wire.InitStatus())["initialized"] == 1
    with RemoteHub("127.0.0.1", port) as second:
        assert second.request(wire.InitStatus())["initialized"] == 1


def test_idle_connection_is_closed_and_its_session_dropped(monkeypatch):
    monkeypatch.setattr(netio, "IDLE_TIMEOUT_S", 0.5)
    daemon = HubDaemon(DaemonConfig(overrides={"auto_init": 0, "host_pubkey_hex": "00" * 32}))
    daemon.start()
    try:
        with RemoteHub("127.0.0.1", daemon.port) as idle, RemoteHub("127.0.0.1", daemon.port) as busy:
            assert len(daemon.endpoint.sessions) == 2
            start = time.monotonic()
            while time.monotonic() - start < 1.25:  # 2.5 idle timeouts
                assert busy.request(wire.InitStatus())["initialized"] == 0
                time.sleep(0.05)
            assert closed_by_peer(idle.conn.sock)
            assert list(daemon.endpoint.sessions) == [busy.session_id]
    finally:
        daemon.stop()


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _stop_right_after_ready(entry: str, argv: list[str], log_path) -> int:
    """Run `routee.cli.<entry>` in a new process, send it SIGTERM as soon as
    it prints its ready line, and return its exit code; every wait is bounded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = f"import sys; from routee.cli import {entry}; sys.exit({entry}())"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, "-c", code, "--json", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=log)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready and "listening" in json.loads(proc.stdout.readline()), log_path.read_text()
        proc.send_signal(signal.SIGTERM)
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


def test_sigterm_stops_simchain_serve(tmp_path):
    for i in range(5):
        assert _stop_right_after_ready("simchain_main", ["serve"], tmp_path / f"sim-{i}.log") == 0, i
