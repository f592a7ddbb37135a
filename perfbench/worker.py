"""One fresh process: build one workload's inputs, run one pass, report as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's `src`. Set-up
time runs from the parent's spawn timestamp (taken with `time.perf_counter`,
which is the system-wide monotonic clock on Linux) to inputs ready, so it
covers interpreter start-up and `import natorus`. The last stdout line is
the report.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out")
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    import natorus

    source = Path(natorus.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"natorus imported from {source}, not from this checkout's src/")

    import spans
    import workloads

    setup, run, observe = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    inputs = setup(args.seed)
    report = {"setup_s": time.perf_counter() - args.spawned_at}
    if args.mode == "run":
        t0 = time.perf_counter()
        result = run(inputs)
        report["wall_s"] = time.perf_counter() - t0
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["observed"] = observe(inputs, result)
        if tracer is not None:
            report["layers"] = {
                "self_s": tracer.self_s,
                "calls": tracer.calls,
                "distinct": {k: len(v) for k, v in tracer.distinct.items()},
                "cells": tracer.cells,
            }
            if args.spans_out:
                tracer.write(args.spans_out)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
