"""Seconds per associator_table call and peak RSS over group orders, on translation actions.

    PYTHONPATH=src python3 bench/associator_ladder.py [--order N]

Each order runs in a fresh process, so its peak RSS is its own; --order runs
one order in this process instead. A point is G acting on functions on G by
translation, so d = |G| and every graded operator is D x D with D = |G|^2:
one product costs about |G|^6 multiply-adds and the table checks |G|^3
triples. phi is a tricharacter on G (the octonion phi at |G| = 8). Each of
`repeats` calls gets a freshly built phi, so each pays the cocycle check and
the weight table once, as a first call does; `associator_s` is the median
seconds of those calls. `peak_rss_mb` is the process's peak RSS after the
calls. One JSON line per order.
"""

import statistics
import time

import ladder

LADDER = {  # order -> (factors, tricharacter tensor or None for the octonion phi, modulus, repeats)
    4: ([4], [[[1]]], 4, 20),
    8: ([2, 2, 2], None, 2, 5),
    # phi = (x1 y1 z1 + 3 x0 y1 z1) / 6
    12: ([2, 6], [[[0, 0], [0, 3]], [[0, 0], [0, 1]]], 6, 1),
}


def point(order):
    import numpy as np

    import natorus as nt

    factors, tensor, modulus, repeats = LADDER[order]
    group = nt.make_group(factors)
    action = nt.GAction.translation(group)
    seconds = []
    for _ in range(repeats):
        if tensor is None:
            phi = nt.octonion_associator_tricharacter(group)
        else:
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
        "operator_dim": order * order,
        "triples": len(report.entries),
        "repeats": repeats,
        "associator_s": statistics.median(seconds),
        "max_error": report.max_error,
        "peak_rss_mb": ladder.peak_rss_mb(),
    }


if __name__ == "__main__":
    ladder.main(__file__, __doc__, LADDER, point)
