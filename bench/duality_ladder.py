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

Every rung passes, and verify_duality decides it by its exact pass over the
rows, with no pair drawn: the |G| = 8 rung (d = 2, whose beta is a G-action)
as the scalar rungs from |G| = 16 up. So call_setup_s is that pass, and
per_trial_s is a difference of two nearly equal timings: near 0, and it may
come out slightly negative. The float rows are timed by a control: the
rung's pairs again with include_multiplier=False, whose exact rows differ at
row 0, so every pair runs through the float rows and the check fails.
control_per_trial_s is its time per trial, taken as per_trial_s is: after a
first one-pair call that fills its caches, from a one-pair and a
`trials`-pair call (the second one-pair call whole on a one-pair rung);
peak_rss_mb includes the control's calls.
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

    def call(k, include_multiplier):
        """Seconds of one check of k pairs, which must pass with the
        multiplier and fail without it, and its report."""
        start = time.perf_counter()
        report = nt.verify_duality(tw, psi, trials=k, seed=seed, include_multiplier=include_multiplier)
        elapsed = time.perf_counter() - start
        if report.passed != include_multiplier or report.mode != "random":
            raise SystemExit(f"order {order}: unexpected report {report.as_dict()}")
        return elapsed, report

    def per_trial(include_multiplier):
        """(seconds of a one-pair call, seconds per pair, the last report)."""
        one, report = call(1, include_multiplier)
        if trials == 1:
            return one, one, report
        many, report = call(trials, include_multiplier)
        return one, (many - one) / (trials - 1), report

    # each setting's first call also fills the caches later calls read
    first, _ = call(1, True)
    one, per_trial_s, report = per_trial(True)
    call(1, False)
    return {
        "order": order,
        "dim": tw.dim,
        "trials": trials,
        "setup_s": setup_s,
        "first_call_s": first,
        "per_trial_s": per_trial_s,
        "call_setup_s": one - per_trial_s if trials > 1 else None,
        "control_per_trial_s": per_trial(False)[1],
        "setup_peak_rss_mb": setup_peak,
        "peak_rss_mb": ladder.peak_rss_mb(),
        "max_error": report.max_error,
    }


if __name__ == "__main__":
    ladder.main(__file__, __doc__, LADDER, point, seed=0)
