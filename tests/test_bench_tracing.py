"""The benchmark's span tracer (`bench/tracing.py`) patches named attributes
of `routee` in place. Install and uninstall it here so that a rename or a
move of a traced name fails in the unit tests, not only in a traced run."""

import importlib.util
import os

import pytest

from routee import wire
from routee.client import LocalConnection, LocalHubEndpoint
from routee.crypto import DeterministicRng
from routee.scenarios import World
from routee.session import ClientHandshake, HubSessionEndpoint
from routee.wire import FRAME_ENVELOPE


TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("role", ["inproc", "daemon"])
def test_tracer_installs_and_restores_every_hook(role):
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(role)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_envelope_rid_reads_session_id_and_seq():
    rng = DeterministicRng(3)
    endpoint = HubSessionEndpoint(rng=rng)
    handshake = ClientHandshake(endpoint.static_public, rng=rng)
    session = handshake.complete(endpoint.handle_init(handshake.init_payload())[0])
    session.seal(b"first")
    envelope = session.seal(b"second")
    rid = _load_tracing().envelope_rid(FRAME_ENVELOPE, envelope)
    assert rid == (int.from_bytes(session.session_id, "big", signed=True), 1)


def test_tracer_sees_the_calls_of_the_hub_table():
    # the hub's dispatch table looks each method up when it runs, so the
    # methods the tracer replaced on the class are the ones called
    harness = World()
    alice, bob = harness.new_user(), harness.new_user()
    harness.deposit(alice, 50_000)
    harness.set_boundary(bob)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install("inproc")
        conn = LocalConnection(LocalHubEndpoint(harness.hub), rng=DeterministicRng(4))
        tracer.buf().on = True
        payment = wire.Payment(alice.address, harness.nonce(alice), [wire.PaymentItem(bob.address, 100, 2)])
        assert conn.request(alice.sign(payment)) == {"accepted": 1}
        query = wire.QueryUser(alice.address)
        reply = conn.request(alice.sign(query, conn.session.session_id))
        assert reply["balance"] == harness.balance(alice)
        tracer.buf().on = False
    finally:
        tracer.uninstall()
    recorded = {tracer.names[nid] for buf in tracer.buffers for nid in buf.name}
    assert {"hub.dispatch", "hub.payment", "hub.query_user"} <= recorded
