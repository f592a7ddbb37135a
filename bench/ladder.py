"""The driver the ladder scripts share: one fresh process per group order.

A ladder script defines LADDER (order -> its parameters) and point(order, ...),
which returns one JSON-able dict, and calls `main`. With --order N the point
runs in this process; without it the script reruns itself once per order, each
in a fresh subprocess with BLAS pinned to one thread, so that each order's
peak RSS is its own. One JSON line per order.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

BLAS_ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(script: str, doc: str, ladder: dict, point, **options) -> None:
    """Run `point(order, **options)` for --order N, else every order of `ladder`
    in a fresh subprocess of `script`. Each keyword of `options` is an integer
    flag with that default, passed on to point and to the subprocesses."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    for name, default in options.items():
        ap.add_argument(f"--{name}", type=int, default=default)
    ap.add_argument(
        "--order", type=int, choices=sorted(ladder), help="run one order in this process"
    )
    args = vars(ap.parse_args())
    order = args.pop("order")
    if order is not None:
        print(json.dumps(point(order, **args)))
        return
    env = {**os.environ, **BLAS_ONE_THREAD}
    flags = [text for name, value in args.items() for text in (f"--{name}", str(value))]
    for order in ladder:
        subprocess.run([sys.executable, script, "--order", str(order), *flags], env=env, check=True)
