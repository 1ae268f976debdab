from conftest import run_conservation_mix
from hypothesis import given, settings, strategies as st

from routee import wire
from routee.errors import RouteeError
from routee.snapshot import dump_hub

SESSION_ID = bytes(range(8))


def test_random_operation_soup_preserves_ledger_identity():
    harness = run_conservation_mix(seed=2024, n_ops=600, n_users=12)
    hub = harness.hub
    assert hub.termination_complete
    assert hub.rf_pending == 0
    assert hub.rf_confirmed == hub.rf_collected_total
    assert all(u.balance == 0 for u in hub.users.values())
    assert hub.conservation()["ok"]


def test_soup_is_seed_deterministic():
    a = run_conservation_mix(seed=7, n_ops=150, n_users=6, assert_each_step=False)
    b = run_conservation_mix(seed=7, n_ops=150, n_users=6, assert_each_step=False)
    assert a.hub.query_ledger() == b.hub.query_ledger()
    assert a.node.chain.tip_hash == b.node.chain.tip_hash


def reads_leave_the_snapshot_bytes(harness, users):
    """Apply every read kind, a `QueryUser` of each user signed for the
    session and one that is not, and check the hub's snapshot bytes held."""
    hub = harness.hub
    before = dump_hub(hub)
    reads = [wire.QueryLatestBlock(), wire.QueryLedger(), wire.GetSettlement(), wire.QueryUser(users[0].address)]
    reads += [keys.sign(wire.QueryUser(keys.address), SESSION_ID) for keys in users]
    for req in reads:
        try:
            hub.apply_request(req, SESSION_ID)
        except RouteeError:
            pass
    assert dump_hub(hub) == before


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_no_read_changes_the_hub(seed):
    run_conservation_mix(seed, n_ops=60, n_users=4, each_step=reads_leave_the_snapshot_bytes)
