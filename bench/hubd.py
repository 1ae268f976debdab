"""Start `routee-hubd` from the source tree, optionally traced.

Usage: python3 bench/hubd.py [--cpu N] [--trace-out PATH] <routee-hubd arguments>

With --cpu the daemon runs on CPU N only. With --trace-out the launcher
installs the benchmark's span wrappers before calling
`routee.cli.hubd_main`, and writes the spans to PATH once the daemon has
stopped (SIGTERM).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cpu"]:
        os.sched_setaffinity(0, {int(argv[1])})
        argv = argv[2:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from routee.cli import hubd_main

    if trace_out is None:
        return hubd_main(argv)
    from tracing import Tracer

    tracer = Tracer(always_on=True)
    tracer.install("daemon")
    try:
        return hubd_main(argv)
    finally:
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
