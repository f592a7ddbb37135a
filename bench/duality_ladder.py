"""Time per trial and peak RSS of verify_duality in random mode over group orders.

    PYTHONPATH=src python3 bench/duality_ladder.py [--seed 0]

Each order runs in a fresh process, so its peak RSS is its own. A point calls
verify_duality with 1 and with `trials` random pairs and reports
per_trial_s = (t_trials - t_1) / (trials - 1), the per-call set-up
call_setup_s = t_1 - per_trial_s, and the process's peak RSS after both calls
(twist set-up included). One JSON line per order.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

LADDER = {8: 100, 16: 100, 64: 30, 128: 8}  # order -> random pairs


def epsilon(rank):
    """Levi-Civita tensor on the last three coordinates."""
    eps = np.zeros((rank,) * 3, dtype=np.int64)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[rank - 3 + i, rank - 3 + j, rank - 3 + k] = 1
        eps[rank - 3 + j, rank - 3 + i, rank - 3 + k] = -1
    return eps


def setup(order):
    """The twist and an alternating psi for which the duality check passes."""
    import natorus as nt
    from natorus.presets import pauli_m2_twist

    if order == 8:  # B = M_2, beta = Pauli conjugation
        tw = pauli_m2_twist()
        return tw, nt.octonion_associator_tricharacter(tw.group)
    factors, modulus = {16: ([2, 2, 4], 2), 64: ([4, 4, 4], 4), 128: ([2, 4, 4, 4], 4)}[order]
    group = nt.make_group(factors)
    eps = epsilon(group.rank)
    tau = nt.trivializing_cochain(nt.Tricharacter(group, eps, 2))
    return nt.TwistData.scalar_from_sigma(group, tau), nt.Tricharacter(group, eps, modulus)


def point(order, seed):
    import natorus as nt

    trials = LADDER[order]
    tw, psi = setup(order)
    times = {}
    for k in (1, trials):
        start = time.perf_counter()
        report = nt.verify_duality(tw, psi, trials=k, seed=seed)
        times[k] = time.perf_counter() - start
        if not report.passed or report.mode != "random":
            raise SystemExit(f"order {order}: unexpected report {report.as_dict()}")
    per_trial = (times[trials] - times[1]) / (trials - 1)
    return {
        "order": order,
        "dim": tw.dim,
        "trials": trials,
        "per_trial_s": per_trial,
        "call_setup_s": times[1] - per_trial,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "max_error": report.max_error,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--order", type=int, choices=sorted(LADDER), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.order is not None:
        print(json.dumps(point(args.order, args.seed)))
        return
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for order in LADDER:
        cmd = [sys.executable, __file__, "--order", str(order), "--seed", str(args.seed)]
        subprocess.run(cmd, env=env, check=True)


if __name__ == "__main__":
    main()
