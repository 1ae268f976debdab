"""Smoke test: every workload runs at a tiny size, with and without tracing,
reports every metric `BENCHMARK.json` names with a unit, and runs its
correctness checks. No timing bounds.

    python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import engine  # noqa: E402
import run  # noqa: E402

TINY = {
    "pay-local": dict(payers=(40,), depth=3, setup_reps=2, restart_reps=2, reconnect_every=50),
    "hubd-full": dict(payers=(1, 1), depth=5, setup_reps=1, restart_reps=1, presign_per_s=300,
                      reconnect_every=40),
    "settle-ramp": dict(payers=(20,), depositors=5, depth=60, fund=5, ledger_every=10,
                        setup_reps=2, restart_reps=2, reconnect_every=50),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)

# every end-to-end metric is printed; BENCHMARK.json gates the steady ones
ALL_END_TO_END = ["setup_s", "req_per_s", "pay_p50_us", "pay_p99_us", "read_p50_us",
                  "settle_p50_us", "settle_p99_us", "plan_build_ms", "insert_p50_ms",
                  "connect_p50_ms", "restart_s"]


def test_every_workload_has_a_tiny_shape():
    assert sorted(TINY) == sorted(engine.WORKLOADS)
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_reports_every_metric(workload, trace, monkeypatch, capsys):
    tiny = dataclasses.replace(engine.WORKLOADS[workload], **TINY[workload])
    monkeypatch.setitem(engine.WORKLOADS, workload, tiny)
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]

    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
        reported = lines[1]["end_to_end"]
        assert set(reported) == set(ALL_END_TO_END)
        assert all(m["value"] > 0 and m["unit"] for m in reported.values())

    record = lines[0]["run_record"]
    assert record["seed"] == 7 and record["crypto_mode"] == tiny.crypto
    checks = lines[1]["checks"]
    for name in ("conservation", "balances_nonces", "ledger_model", "plan_on_chain",
                 "restart_ledger"):
        assert checks.get(name, 0) > 0, name
    if trace:
        report = lines[2]
        assert {"payment", "settle", "insert_block"} <= set(report["coverage"])
