"""Seconds per associator_table call and peak RSS over group orders, on translation actions.

    PYTHONPATH=src python3 bench/associator_ladder.py [--order N]

Each order runs in a fresh process, so its peak RSS is its own; --order runs
one order in this process instead. A point is G acting on functions on G by
translation, so d = |G|, and a graded element holds one d x d matrix per
degree and per point of l2(Ghat), nm = |G| points. A homogeneous product
is nm d x d matmuls, about |G|^4 multiply-adds; the
table checks |G|^3 triples with two products each, about |G|^7 in all, and
holds the product table P of |G|^2 blocks, |G|^5 complex entries (0.5 GB at
|G| = 32). phi is a tricharacter on G: the Levi-Civita tensor on the last
three coordinates mod 2 (the octonion phi at |G| = 8) unless a tensor is
given. Each of `repeats` calls gets a freshly built phi, so each pays the
cocycle check and the weight table once, as a first call does;
`associator_s` is the median seconds of those calls. `peak_rss_mb` is the
process's peak RSS after the calls. One JSON line per order.
"""

import statistics
import time

import ladder

LADDER = {  # order -> (factors, tricharacter tensor or None for Levi-Civita, modulus, repeats)
    4: ([4], [[[1]]], 4, 20),
    8: ([2, 2, 2], None, 2, 5),
    # phi = (x1 y1 z1 + 3 x0 y1 z1) / 6
    12: ([2, 6], [[[0, 0], [0, 3]], [[0, 0], [0, 1]]], 6, 1),
    16: ([2, 2, 2, 2], None, 2, 3),
    32: ([2, 2, 2, 2, 2], None, 2, 1),
}


def point(order):
    import numpy as np

    import natorus as nt
    from natorus.twisted_algebra import levi_civita

    factors, tensor, modulus, repeats = LADDER[order]
    group = nt.make_group(factors)
    action = nt.GAction.translation(group)
    if tensor is None:
        tensor = levi_civita(group.rank)
    seconds = []
    for _ in range(repeats):
        phi = nt.Tricharacter(group, tensor, modulus)
        start = time.perf_counter()
        report = nt.associator_table(action, phi, rng=np.random.default_rng(0))
        seconds.append(time.perf_counter() - start)
        if not report.passed:
            raise SystemExit(f"order {order}: associator table failed, max {report.max_error:.3e}")
    return {
        "order": order,
        "factors": factors,
        "den": phi.den,
        "points": order,
        "block_dim": order,
        "triples": len(report.entries),
        "repeats": repeats,
        "associator_s": statistics.median(seconds),
        "max_error": report.max_error,
        "peak_rss_mb": ladder.peak_rss_mb(),
    }


if __name__ == "__main__":
    ladder.main(__file__, __doc__, LADDER, point)
