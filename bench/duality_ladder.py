"""Set-up time, time per trial and peak RSS of verify_duality in random mode over group orders.

    PYTHONPATH=src python3 bench/duality_ladder.py [--seed 0] [--order N]

Each order runs in a fresh process, so its peak RSS is its own; --order runs
one order in this process instead. A point first builds its inputs and
reports the seconds of each set-up stage in `setup_s`: group tables,
trivializer (the mod-2 tricharacter and its trivializing 2-cochain, checked
exactly), twist (validated exactly: its phi is tau's cached coboundary, so
nothing is swept) and psi (the preset |G| = 8 point has twist and psi only),
and the process's peak RSS at that point, `setup_peak_rss_mb`. It then calls
verify_duality with one random pair (`first_call_s`, which also pays one-time
costs such as the first use of numpy's random generator), then with one and
with `trials` pairs, and reports per_trial_s = (t_trials - t_1) / (trials - 1),
the per-call set-up call_setup_s = t_1 - per_trial_s, and the process's peak
RSS after the calls, `peak_rss_mb`; the two peaks show whether set-up or the
check sets the process's peak. A rung of one pair makes only the two
one-pair calls and reports the second whole as per_trial_s, call set-up
included, with call_setup_s null. One JSON line per order. The twist's phi
is the mod-2 tricharacter itself (trivializing_cochain leaves it as
delta tau) and psi is a tricharacter too, so neither set-up nor the check
builds an n^3 table. The top rungs are |G| = 512 (Z/2 x Z/4^4, 2 pairs) and
|G| = 1024 (Z/4^5, 1 pair).

Every rung from |G| = 16 up is a scalar twist with a passing psi, which
verify_duality decides by its exact pass over the rows, with no pair drawn.
There call_setup_s is that pass, and per_trial_s is a difference of two
nearly equal timings: near 0, and it may come out slightly negative. The
|G| = 8 rung (d = 2) still times its pairs.
"""

import time

import ladder

LADDER = {8: 100, 16: 100, 64: 30, 128: 8, 256: 2, 512: 2, 1024: 1}  # order -> random pairs


def setup(order):
    """The twist and an alternating psi for which the duality check passes, and
    the seconds each set-up stage took."""
    import natorus as nt
    from natorus.presets import pauli_m2_twist
    from natorus.twisted_algebra import levi_civita

    seconds = {}

    def stage(name, build, *args):
        start = time.perf_counter()
        out = build(*args)
        seconds[name] = time.perf_counter() - start
        return out

    if order == 8:  # B = M_2, beta = Pauli conjugation
        tw = stage("twist", pauli_m2_twist)
        return tw, stage("psi", nt.octonion_associator_tricharacter, tw.group), seconds
    factors, modulus = {
        16: ([2, 2, 4], 2),
        64: ([4, 4, 4], 4),
        128: ([2, 4, 4, 4], 4),
        256: ([4, 4, 4, 4], 4),
        512: ([2, 4, 4, 4, 4], 4),
        1024: ([4, 4, 4, 4, 4], 4),
    }[order]

    def group_tables():
        group = nt.make_group(factors)
        group.coords, group.add_table
        return group

    group = stage("group", group_tables)
    eps = levi_civita(group.rank)
    tau = stage("trivializer", lambda: nt.trivializing_cochain(nt.Tricharacter(group, eps, 2)))
    tw = stage("twist", nt.TwistData.scalar_from_sigma, group, tau)
    return tw, stage("psi", nt.Tricharacter, group, eps, modulus), seconds


def point(order, seed):
    import natorus as nt

    trials = LADDER[order]
    tw, psi, setup_s = setup(order)
    setup_peak = ladder.peak_rss_mb()
    times = []
    # the first call also fills the caches later calls read
    for k in (1, 1, trials) if trials > 1 else (1, 1):
        start = time.perf_counter()
        report = nt.verify_duality(tw, psi, trials=k, seed=seed)
        times.append(time.perf_counter() - start)
        if not report.passed or report.mode != "random":
            raise SystemExit(f"order {order}: unexpected report {report.as_dict()}")
    first, one = times[:2]
    per_trial = (times[2] - one) / (trials - 1) if trials > 1 else one
    return {
        "order": order,
        "dim": tw.dim,
        "trials": trials,
        "setup_s": setup_s,
        "first_call_s": first,
        "per_trial_s": per_trial,
        "call_setup_s": one - per_trial if trials > 1 else None,
        "setup_peak_rss_mb": setup_peak,
        "peak_rss_mb": ladder.peak_rss_mb(),
        "max_error": report.max_error,
    }


if __name__ == "__main__":
    ladder.main(__file__, __doc__, LADDER, point, seed=0)
