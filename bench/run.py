"""The routee benchmark: one command, three workloads.

    python3 bench/run.py --workload {pay-local,hubd-full,settle-ramp}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the `routee` package is imported
from `src/` there. `--trace 0` measures the end-to-end metrics. `--trace 1`
first repeats that untraced run for reference, then runs the workload again
with every layer boundary wrapped in spans, and reports the per-layer
metrics, the coverage check and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `metrics` holds the metrics
`BENCHMARK.json` lists (`end_to_end`, or `per_layer` when traced). Lines
before it carry the run record, every end-to-end metric (gated or not),
sample counts, the checks that ran and, for traced runs, the coverage
report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import ssl
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def run_record(args, spec) -> dict:
    import cryptography
    from cryptography.hazmat.backends.openssl import backend

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "crypto_mode": spec.crypto,
        "transport": "tcp-loopback" if spec.transport == "tcp" else "in-process",
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "python_ssl_openssl": ssl.OPENSSL_VERSION,
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def measure(engine, spec, args, tracer=None, trace_dir=None, presign=None):
    run = engine.Run(spec, args.seed, args.seconds, tracer=tracer, trace_dir=trace_dir,
                     presign=presign)
    run.execute()
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "routee")):
        print(f"error: no routee sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import engine
    import tracing

    spec = engine.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(engine.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]

    print(json.dumps({"run_record": run_record(args, spec)}), flush=True)
    untraced = measure(engine, spec, args)
    metrics, samples = untraced.end_to_end()
    print(json.dumps({"end_to_end": {name: {"value": value, "unit": unit}
                                     for name, (value, unit) in metrics.items()},
                      "wall_req_per_s": untraced.wall_req_per_s(),
                      "samples": samples, "presigned": sum(untraced.presigned),
                      "presign_s": round(untraced.presign_s, 3),
                      "presign_exhausted": untraced.presign_exhausted(),
                      "checks": dict(untraced.checks),
                      "failures": untraced.failures[:5]}), flush=True)
    runs = [untraced]

    if args.trace:
        tracer = tracing.Tracer()
        role = "client" if spec.transport == "tcp" else "inproc"
        tracer.install(role)
        os.makedirs(engine.OUT_DIR, exist_ok=True)
        trace_dir = tempfile.mkdtemp(prefix=f"trace-{spec.name}-{args.seed}-", dir=engine.OUT_DIR)
        # tracing slows the hub, so the traced run never needs to sign ahead
        # more than the untraced run sent
        presign = [r.sent + 100 for r in untraced.records] if untraced.presigned else None
        try:
            traced = measure(engine, spec, args, tracer, trace_dir, presign)
        finally:
            tracer.uninstall()
        exports = [tracer.export()]
        for path in traced.trace_files:
            exports.append(tracing.read_export(path))
            os.remove(path)
        requests = {rid: (engine.KINDS[kind], latency)
                    for rec in traced.records
                    for kind, latency, rid in zip(rec.kind, rec.latency, rec.rids())}
        result = tracing.analyse(exports, requests, tcp=spec.transport == "tcp")
        metrics = result["metrics"]
        metrics["snapshot.bytes"] = (float(traced.snapshot_bytes), "bytes")
        traced_rate = traced.req_per_s()
        overhead = untraced.req_per_s() / traced_rate - 1 if traced_rate else 0.0
        metrics["bench.trace_overhead_pct"] = (overhead * 100, "%")
        gaps = [abs(c["gap"]) for c in result["coverage"].values()]
        metrics["bench.coverage_gap_max_pct"] = (max(gaps, default=0.0) * 100, "%")
        missed = sorted(k for k, c in result["coverage"].items() if not c["within_10pct"])
        with open(os.path.join(trace_dir, "summary.json"), "w") as fh:
            json.dump({"coverage": result["coverage"], "metrics": metrics}, fh, indent=1)
        print(json.dumps({"coverage": result["coverage"], "coverage_missed": missed,
                          "untraced_req_per_s": round(untraced.req_per_s(), 1),
                          "traced_req_per_s": round(traced.req_per_s(), 1)}), flush=True)
        runs.append(traced)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in listed},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
