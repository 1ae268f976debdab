import hashlib
import json

import pytest

from routee import scenarios


def test_fake_deposit_defended_by_spend_all():
    report = scenarios.scenario_fake_deposit(seed=1)
    assert report.verdict == "defended"
    assert report.details["reject_code"] == "missing-utxo"
    assert report.details["honest_deposits_intact"] is True
    assert report.deltas["honest_onchain_change"] == 0


def test_fake_deposit_vulnerable_with_naive_builder():
    report = scenarios.scenario_fake_deposit(seed=1, builder="naive")
    assert report.verdict == "vulnerable"
    # every spent input was an honest deposit
    assert report.deltas["stolen"] == report.deltas["honest_deposits_spent"] > 0


def test_abort_economics_honest_dominates():
    report = scenarios.scenario_abort_economics(seed=1)
    assert report.verdict == "defended"
    payoffs = report.deltas
    assert payoffs["honest"] > payoffs["shutdown"]
    assert payoffs["honest"] > payoffs["stop-feeding"]
    assert payoffs["honest"] > payoffs["withhold-broadcast"]
    assert report.details["rf_confirmed_frozen"] is True
    assert report.details["chained_plan_on_main"] == "missing-utxo"
    assert report.details["zero_fee_tie"] is True


def test_message_abuse_defended():
    report = scenarios.scenario_message_abuse(seed=1)
    assert report.verdict == "defended"
    assert report.deltas["replay_credited"] == 500
    assert report.details["plaintext_leaked"] is False
    assert report.details["reorder_fees_match_signed"] is True


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_scenarios_are_seed_deterministic(name):
    fn = scenarios.SCENARIOS[name]
    first = fn(seed=42).to_dict()
    second = fn(seed=42).to_dict()
    assert first == second


def test_verdicts_stable_across_20_seeds():
    for seed in range(20):
        assert scenarios.scenario_fake_deposit(seed).verdict == "defended"
        assert scenarios.scenario_message_abuse(seed).verdict == "defended"
        assert scenarios.scenario_abort_economics(seed).verdict == "defended"


def test_scenario_cli_json(capsys):
    code = scenarios.main(["fake-deposit", "--seed", "3", "--json"])
    out = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert out["verdict"] == "defended"
    assert out["scenario"] == "fake-deposit"

    code = scenarios.main(["fake-deposit", "--seed", "3", "--naive", "--json"])
    out = json.loads(capsys.readouterr().out.strip())
    assert code == 0  # the naive run is expected to demonstrate vulnerability
    assert out["verdict"] == "vulnerable"


def test_scenario_output_is_pinned(capsys):
    # the bytes of `routee-scenario all --seed 7 --json`: a change to how
    # plans are built, signed or matched must not move them
    assert scenarios.main(["all", "--seed", "7", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 1_774
    assert hashlib.sha256(out).hexdigest() == "8b771ba90fa55cbdc018cd45e246debec9a051df2f6c8112c29221c6babd262c"


def test_naive_run_exits_zero_when_every_verdict_is_the_expected_one(capsys):
    # the naive builder touches fake-deposit alone: it reads vulnerable and
    # the other scenarios still read defended
    assert scenarios.main(["all", "--seed", "7", "--naive"]) == 0
    assert scenarios.main(["message-abuse", "--seed", "7", "--naive"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("seed", [-1, 2**256], ids=["negative", "2**256"])
def test_seed_out_of_range_is_a_usage_error(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        scenarios.main(["all", "--seed", str(seed)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_message_abuse_propagates_a_crash_in_the_relay_path(monkeypatch):
    def crash(self, frame):
        raise TypeError("relay bug")

    monkeypatch.setattr(scenarios.Relay, "feed", crash)
    with pytest.raises(TypeError, match="relay bug"):
        scenarios.scenario_message_abuse(seed=7)
