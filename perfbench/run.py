"""natorus benchmark: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs in a fresh worker process (perfbench/worker.py) with the
BLAS thread pools pinned, and every pass goes through the correctness gate
against perfbench/references.json before any time is reported.

--trace 0 repeats untraced passes until S seconds have gone by (at least
one) and reports the end-to-end metrics named in BENCHMARK.json as medians
over passes. Set-up is sampled in every pass's process and then in
set-up-only processes, until there are SETUP_SAMPLES samples or a further
SETUP_SHARE of S has gone by.
--trace 1 alternates untraced and traced passes for S seconds (at least two
traced passes, so that their counts can be compared) and reports
the per-layer metrics from the traced ones; trace.overhead_ratio is the
median traced wall time over the median untraced wall time.

Metric names, units and bounds live in BENCHMARK.json; what each workload
stresses and the seed-commit baseline are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
SETUP_SAMPLES = 25  # set-up samples a run aims for
SETUP_SHARE = 0.2  # share of --seconds that set-up-only processes may add
BLAS_THREADS = "1"  # of the 2 cores on the reference box; one keeps passes steady
RUN_LIMIT_S = 170.0  # every run must end within 180 s
WORKLOADS = ("verify_suite", "duality_large", "exact_sweeps")  # as in workloads.py, which imports natorus


class WorkerFailed(RuntimeError):
    pass


def pass_seed(seed: int, i: int) -> int:
    """The seed of pass i of a run, derived from the run's seed alone."""
    return random.Random(f"natorus-bench/{seed}/{i}").randrange(2**31)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("NATORUS_THREADS", None)  # parsed and echoed by the CLI, changes nothing
    env.update(
        OMP_NUM_THREADS=BLAS_THREADS,
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def spawn(workload, seed, mode, trace=0, deadline=None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    cmd += ["--mode", mode, "--trace", str(trace)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(OUT / f"spans-{workload}.json")]
    timeout = None if deadline is None else max(1.0, deadline - time.perf_counter())
    cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"{workload} pass exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ gate


def gate(observed: dict, expected: dict) -> tuple[int, list[str]]:
    """Compare one pass with the references; return (checks attempted, failures)."""
    failures = []
    exact = observed["exact"]
    keys = sorted(set(exact) | set(expected))
    for key in keys:
        want, got = expected.get(key, "<missing>"), exact.get(key, "<missing>")
        if want != got:
            failures.append(f"{key}: expected {want!r}, got {got!r}")
    for name, value, op, limit in observed["bounded"]:
        ok = {"<": value < limit, "<=": value <= limit, ">": value > limit}[op]
        if not ok:
            failures.append(f"{name}: {value!r} is not {op} {limit!r}")
    return len(keys) + len(observed["bounded"]), failures


def load_references(workload: str) -> dict:
    with open(BENCH / "references.json") as fh:
        return json.load(fh)[workload]["exact"]


# ------------------------------------------------------------------ runs


def run_untraced(workload, seed, seconds, deadline, passes):
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(spawn(workload, pass_seed(seed, len(passes)), "run", deadline=deadline))
    setups = [p["setup_s"] for p in passes]
    setup_end = time.perf_counter() + SETUP_SHARE * seconds
    while len(setups) < SETUP_SAMPLES and time.perf_counter() < setup_end:
        seed_i = pass_seed(seed, len(passes) + len(setups))
        setups.append(spawn(workload, seed_i, "setup", deadline=deadline)["setup_s"])
    metrics = {
        "wall_s": median(p["wall_s"] for p in passes),
        "setup_s": median(setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }
    return 0, [], metrics


def run_traced(workload, seed, seconds, deadline, passes):
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        seed_i = pass_seed(seed, len(traced))
        plain.append(spawn(workload, seed_i, "run", deadline=deadline))
        passes.append(plain[-1])
        traced.append(spawn(workload, seed_i, "run", trace=1, deadline=deadline))
        passes.append(traced[-1])
    failures = []
    for u, t in zip(plain, traced):
        if u["observed"]["exact"] != t["observed"]["exact"]:
            failures.append("traced pass changed an exact result")
    layers = [t["layers"] for t in traced]
    counts = [layer_counts(lay) for lay in layers]
    if any(c != counts[0] for c in counts):
        failures.append("layer counts differ between traced passes")
    metrics = layer_metrics(layers)
    metrics["trace.overhead_ratio"] = median(t["wall_s"] for t in traced) / median(
        p["wall_s"] for p in plain
    )
    return len(traced) + 1, failures, metrics


def layer_counts(layers: dict) -> dict:
    """Everything a traced pass counted, which must repeat exactly."""
    return {k: v for k, v in layers.items() if k != "self_s"}


def layer_metrics(layers: list[dict]) -> dict:
    first = layers[0]
    out = {}
    for stem, calls in first["calls"].items():
        out[f"{stem}_s"] = median(lay["self_s"][stem] for lay in layers)
        out[f"{stem}_calls"] = out[f"{stem}_builds"] = calls
        out[f"{stem}_distinct_ratio"] = first["distinct"][stem] / calls if calls else 0.0
        out[f"{stem}_cells"] = first["cells"][stem]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "natorus" / "__init__.py").is_file():
        print(f"no natorus source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = load_references(args.workload)
    runner = run_traced if args.trace else run_untraced
    passes = []  # every finished pass, gated below even if a later one fails
    try:
        attempted, failures, metrics = runner(
            args.workload, args.seed, args.seconds, deadline, passes
        )
    except WorkerFailed as exc:  # the failed pass counts as one failed check
        attempted, failures, metrics = 1, [str(exc)], {}

    for p in passes:
        n, fails = gate(p["observed"], expected)
        attempted += n
        failures += fails
    for line in failures:
        print(f"CHECK FAILED [{args.workload}] {line}", file=sys.stderr)

    metrics["fail_ratio"] = len(failures) / attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {}
        if failures
        else {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
