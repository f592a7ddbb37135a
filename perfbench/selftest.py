"""Self-test of the benchmark's correctness gate and tracing.

    python3 perfbench/selftest.py

For each of the three workloads (about two minutes in all) it runs one
untraced and two traced passes on one seed and checks that every pass clears
the gate, that tracing changes no exact result, and that every layer count
repeats exactly between the two traced passes. It then hands the gate a
deliberately wrong expected digest and checks that the gate reports it.
Exits 0 when everything holds.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    problems = []
    seed = run.pass_seed(0, 0)
    for workload in run.WORKLOADS:
        expected = run.load_references(workload)
        plain = run.spawn(workload, seed, "run")
        traced = [run.spawn(workload, seed, "run", trace=1) for _ in range(2)]
        for p in [plain, *traced]:
            problems += run.gate(p["observed"], expected)[1]
        if any(t["observed"]["exact"] != plain["observed"]["exact"] for t in traced):
            problems.append(f"{workload}: a traced pass changed an exact result")
        counts = [run.layer_counts(t["layers"]) for t in traced]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: layer counts differ between two traced passes")
        calls = {k: v for k, v in counts[0]["calls"].items() if v}
        print(f"{workload}: untraced {plain['wall_s']:.2f} s, traced "
              f"{traced[0]['wall_s']:.2f} / {traced[1]['wall_s']:.2f} s, calls {calls}")

    # The gate must catch a wrong expected digest (first digest of the last workload).
    key = next(k for k in sorted(expected) if k.endswith("_sha"))
    wrong = dict(expected, **{key: "0" * 64})
    caught = run.gate(plain["observed"], wrong)[1]
    if len(caught) != 1 or not caught[0].startswith(f"{key}:"):
        problems.append(f"gate did not report exactly the wrong digest {key}: {caught}")
    else:
        print(f"gate caught the wrong digest: {caught[0]}")

    for line in problems:
        print(f"SELF-TEST FAILED {line}", file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
